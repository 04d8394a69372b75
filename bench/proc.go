package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything a run leaves behind — binaries, the Go
// build cache run.sh points there, scratch stores — and is the one
// directory the root .gitignore names for the benchmark.
const buildDir = ".bench_build"

// harness is one invocation's environment: where the built binaries
// are, where scratch files go, and which children are alive.
type harness struct {
	binDir  string
	scratch string
	buildS  float64

	mu    sync.Mutex
	procs map[*exec.Cmd]struct{}
}

// newHarness builds radqec and radqecd from the tree in the current
// directory (which must be the repository root) and makes a scratch
// directory for this invocation.
func newHarness() (*harness, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return nil, fmt.Errorf("bench: run from the repository root: %w", err)
	}
	binDir, err := filepath.Abs(filepath.Join(buildDir, "bin"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	build := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator), "./cmd/radqec", "./cmd/radqecd")
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("bench: go build: %w\n%s", err, out)
	}
	h := &harness{binDir: binDir, buildS: time.Since(start).Seconds(), procs: map[*exec.Cmd]struct{}{}}
	h.scratch, err = os.MkdirTemp(filepath.Dir(binDir), "run-")
	return h, err
}

// close kills any child still alive, waits for it, and removes the
// scratch directory.
func (h *harness) close() {
	h.mu.Lock()
	alive := make([]*exec.Cmd, 0, len(h.procs))
	for c := range h.procs {
		alive = append(alive, c)
	}
	h.mu.Unlock()
	for _, c := range alive {
		c.Process.Kill()
		c.Wait()
	}
	os.RemoveAll(h.scratch)
}

// tempDir makes a fresh directory under the invocation's scratch.
func (h *harness) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(h.scratch, prefix+"-")
}

func (h *harness) track(c *exec.Cmd, alive bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if alive {
		h.procs[c] = struct{}{}
	} else {
		delete(h.procs, c)
	}
}

// childEnv pins every child to the benchmark's CPU budget.
func childEnv() []string {
	return append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
}

// usage is what a finished child cost.
type usage struct {
	CPUSeconds float64
	PeakRSSMiB float64
}

// cliOp is the outcome of one radqec invocation.
type cliOp struct {
	Wall        time.Duration
	FirstRecord time.Duration // spawn to the first stdout line
	Digest      opDigest
	Usage       usage
	Err         error // why the op failed, nil when it passed the stream checks
}

// cliArgs is the radqec command line of a workload's campaign.
func cliArgs(w workload, seed uint64) []string {
	args := []string{"-json", "-workers", strconv.Itoa(childProcs), "-seed", strconv.FormatUint(seed, 10)}
	if w.Shots != 0 {
		args = append(args, "-shots", strconv.Itoa(w.Shots))
	}
	return append(args, w.Experiment)
}

// runCLI runs one radqec campaign closed-loop: spawn, read stdout to
// EOF over a pipe, wait. The stream is digested after the clock stops.
func (h *harness) runCLI(args []string) cliOp {
	cmd := exec.Command(filepath.Join(h.binDir, "radqec"), args...)
	cmd.Env = childEnv()
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return cliOp{Err: err}
	}
	var op cliOp
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return cliOp{Err: err}
	}
	h.track(cmd, true)
	var lines [][]byte
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if len(lines) == 0 {
			op.FirstRecord = time.Since(start)
		}
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	waitErr := cmd.Wait()
	op.Wall = time.Since(start)
	h.track(cmd, false)
	op.Usage = usageOf(cmd.ProcessState)
	switch {
	case sc.Err() != nil:
		op.Err = sc.Err()
	case waitErr != nil:
		op.Err = fmt.Errorf("radqec %v: %w: %s", args, waitErr, truncate(bytes.TrimSpace(stderr.Bytes()), 300))
	default:
		op.Digest, op.Err = digestLines(lines)
	}
	return op
}

// daemon is one running radqecd.
type daemon struct {
	h     *harness
	cmd   *exec.Cmd
	Addr  string
	Ready time.Duration // spawn to the first /healthz 200
	log   *os.File
}

// startDaemon spawns radqecd on a free loopback port over storeDir and
// waits for /healthz.
func (h *harness) startDaemon(storeDir string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.CreateTemp(h.scratch, "radqecd-*.log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(h.binDir, "radqecd"),
		"-addr", addr, "-workers", strconv.Itoa(childProcs), "-store", storeDir, "-log-level", "warn")
	cmd.Env = childEnv()
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	h.track(cmd, true)
	d := &daemon{h: h, cmd: cmd, Addr: addr, log: logf}
	hc := &http.Client{Timeout: time.Second}
	for deadline := start.Add(20 * time.Second); ; {
		resp, err := hc.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.Ready = time.Since(start)
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("radqecd on %s never became healthy (log %s)", addr, logf.Name())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop drains the daemon with SIGTERM (its store flushes and closes),
// waits for it, and reports what the process cost over its lifetime.
func (d *daemon) stop() (usage, error) {
	defer d.log.Close()
	defer d.h.track(d.cmd, false)
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return usageOf(d.cmd.ProcessState), err
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return usageOf(d.cmd.ProcessState), errors.New("radqecd did not exit within 20s of SIGTERM; killed")
	}
}

// withTimeout bounds one daemon call; a campaign that takes longer
// than this has hung.
func withTimeout() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 60*time.Second)
}
