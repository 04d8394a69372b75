//go:build unix

package main

import (
	"os"
	"runtime"
	"syscall"
)

// usageOf reads a reaped child's rusage: user+system CPU and peak RSS
// (ru_maxrss is KiB on Linux, bytes on Darwin).
func usageOf(ps *os.ProcessState) usage {
	if ps == nil {
		return usage{}
	}
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return usage{}
	}
	rss := float64(ru.Maxrss) / 1024
	if runtime.GOOS == "darwin" {
		rss /= 1024
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{CPUSeconds: tv(ru.Utime) + tv(ru.Stime), PeakRSSMiB: rss}
}
