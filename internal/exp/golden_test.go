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
// matcher or a reordered shot stream would pass all of them. The hashes
// were recorded at commit 1d10355, before the blossom workspace replaced
// the allocating matcher; default shots, seed 1, batch engine, mwpm.
// A change that moves one must say why the tables were allowed to move.
func TestGoldenTablesAcrossCommits(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size fig6/memory campaigns")
	}
	cfg := Config{Seed: 1, Engine: EngineBatch, Decoder: DecoderMWPM}
	for _, g := range []struct {
		name string
		run  func(Config) (*Table, error)
		want string
	}{
		{"fig6", Fig6, "c96fa7fb3ea6fb2e4ea52c117a54a06ede69973d615f3227331a27db2576a762"},
		{"memory", Memory, "1a4d16c5d82230fe12fd6d4365528dc929ad3b6bca3216313078b3e816d010f3"},
		{"ablation-decoder", AblationDecoder, "234d08677ec13def21e2834f6ea33b0dcda37e30f0f517bc5634f49700f83f58"},
	} {
		tab, err := g.run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got := tableHash(tab); got != g.want {
			t.Errorf("%s table moved: sha256 %s, recorded %s", g.name, got, g.want)
		}
	}
}
