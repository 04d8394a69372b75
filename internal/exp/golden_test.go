package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// tableHash is the SHA-256 of a table's title, header, rows and notes,
// one line each with tab-separated cells.
func tableHash(tab *Table) string {
	var sb strings.Builder
	sb.WriteString(tab.Title)
	sb.WriteByte('\n')
	sb.WriteString(strings.Join(tab.Header, "\t"))
	sb.WriteByte('\n')
	for _, row := range tab.Rows {
		sb.WriteString(strings.Join(row, "\t"))
		sb.WriteByte('\n')
	}
	for _, n := range tab.Notes {
		sb.WriteString(n)
		sb.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

// TestGoldenTablesAcrossCommits pins the byte-identical-tables invariant
// across commits: the other determinism tests compare two runs of one
// build (engines, widths, workers, resume), so a tie-break drift in the
// matcher or a reordered shot stream would pass all of them. The first
// three hashes were recorded at commit 1d10355, before the blossom
// workspace replaced the allocating matcher; fig5, fig7, fig8 and
// threshold at 20879a9, before the per-seed tableau reference became a
// compiled one evaluated per seed (fig8's XXZZ on heavy-hex with SWAP
// routing is the circuit family with measurement coins and the most
// strikeable sites). Default shots unless stated, seed 1, batch engine,
// mwpm.
// A change that moves one must say why the tables were allowed to move.
func TestGoldenTablesAcrossCommits(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size fig6/memory campaigns")
	}
	for _, g := range []struct {
		name  string
		run   func(Config) (*Table, error)
		shots int // 0: the experiment's default
		want  string
	}{
		{"fig6", Fig6, 0, "c96fa7fb3ea6fb2e4ea52c117a54a06ede69973d615f3227331a27db2576a762"},
		{"memory", Memory, 0, "1a4d16c5d82230fe12fd6d4365528dc929ad3b6bca3216313078b3e816d010f3"},
		{"ablation-decoder", AblationDecoder, 0, "234d08677ec13def21e2834f6ea33b0dcda37e30f0f517bc5634f49700f83f58"},
		{"fig5", Fig5, 0, "15a2cf50b402e7b9c860017952567ac2577982cf6c7d3a64c2d6682f5da265e2"},
		{"fig7", Fig7, 0, "0b70f284146f99fb55441f7efb9167244bf63af78753dd988df1d680026395f9"},
		{"fig8", Fig8, 512, "86a029bb4d9bae1b9b9d46bac6d42b00765c431f537402b650d62e04e557249d"},
		{"threshold", Threshold, 0, "a239adea1e76a9b06aefacc0a88fd32fe0ca072ad497d3c1ee7aa4effc5af13a"},
	} {
		cfg := Config{Seed: 1, Shots: g.shots, Engine: EngineBatch, Decoder: DecoderMWPM}
		tab, err := g.run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got := tableHash(tab); got != g.want {
			t.Errorf("%s table moved: sha256 %s, recorded %s", g.name, got, g.want)
		}
	}
}
