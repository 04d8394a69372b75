//go:build !unix

package store

import "os"

// lockFile is a no-op where flock is unavailable; single-writer
// discipline is then the operator's responsibility. The lock is
// unix-only (docs/design.md, "Campaign daemon").
func lockFile(*os.File) error { return nil }
