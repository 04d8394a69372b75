//go:build !unix

package main

import "os"

// usageOf has no rusage to read off unix; the CPU and memory metrics
// then read zero and the run reports itself incorrect.
func usageOf(ps *os.ProcessState) usage {
	if ps == nil {
		return usage{}
	}
	return usage{CPUSeconds: (ps.UserTime() + ps.SystemTime()).Seconds()}
}
