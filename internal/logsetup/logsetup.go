// Package logsetup configures the process-wide structured logger from
// the -log-format / -log-level command-line surface the radqec
// binaries share. Both the CLI and the daemon route every diagnostic
// through log/slog; this package is the one place the handler wiring
// lives so the two surfaces cannot drift.
package logsetup

import (
	"fmt"
	"io"
	"log/slog"
)

// Formats and levels accepted by Init, for usage strings.
const (
	Formats = "text or json"
	Levels  = "debug, info, warn, or error"
)

// Init builds a logger writing to w in the requested format and
// minimum level, installs it as slog.Default, and returns it. Format
// "text" is the human-readable key=value handler, "json" one JSON
// object per line for log shippers. Unknown format or level names are
// an error so the binaries can reject them as usage errors (exit 2),
// exactly like -engine.
func Init(w io.Writer, format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want %s)", level, Levels)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	switch format {
	case "text":
		h = slog.NewTextHandler(w, opts)
	case "json":
		h = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("unknown log format %q (want %s)", format, Formats)
	}
	log := slog.New(h)
	slog.SetDefault(log)
	return log, nil
}
