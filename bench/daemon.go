package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"cjoin/internal/server/client"
)

// repoRoot finds the checkout that holds cmd/cjoind, walking up from the
// working directory (the repo root under run.sh, bench/ under go run -C).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "cjoind", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no cmd/cjoind above the working directory; run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildDir is where binaries go (and, under run.sh, everything the go
// command writes): inside the checkout, ignored by git.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// buildCjoind compiles ./cmd/cjoind from the checkout's source.
func buildCjoind(root string) (string, error) {
	bin := filepath.Join(buildDir(root), "cjoind")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cjoind")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/cjoind: %v\n%s", err, out)
	}
	return bin, nil
}

// daemonFlags are the cjoind flags every run uses, after -addr; rows and
// shards are the bench's own flags and are recorded in the env block.
func daemonFlags(rows, shards int) []string {
	return []string{"-rows", strconv.Itoa(rows), "-seed", strconv.Itoa(datasetSeed),
		"-shards", strconv.Itoa(shards), "-maxconc", strconv.Itoa(maxConc), "-pprof"}
}

// daemon is one live cjoind child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	// setup is exec → first healthy /healthz: SSB generation plus
	// pipeline start.
	setup time.Duration
}

// startDaemon execs cjoind on a free loopback port and waits until
// /healthz answers.
func startDaemon(bin string, flags []string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	d := &daemon{base: "http://" + addr}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	d.cmd.Stderr = &d.stderr
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	cl := client.New(d.base)
	for !cl.Healthy(context.Background()) {
		if time.Since(start) > 60*time.Second {
			d.kill()
			return nil, fmt.Errorf("cjoind not healthy after 60s:\n%s", d.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.setup = time.Since(start)
	return d, nil
}

// kill stops the child and waits until it has ended.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	_ = d.cmd.Wait()         // the kill's own exit status
}

// measureSetup starts cjoind n times and returns the live last instance
// and every set-up time; the earlier instances are killed.
func measureSetup(bin string, flags []string, n int) (*daemon, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		d, err := startDaemon(bin, flags)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d.setup.Seconds())
		if i == n-1 {
			return d, times, nil
		}
		d.kill()
	}
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux platform Go supports.
const clockTick = 100

// procCPU returns the user+system CPU seconds a process has used.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ")".
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad CPU fields in /proc/%d/stat", pid)
	}
	return (utime + stime) / clockTick, nil
}

// procPeakRSS returns a process's peak resident set (VmHWM) in MB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
