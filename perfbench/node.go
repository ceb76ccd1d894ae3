package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// nodeProc is one servenode process started by the benchmark.
type nodeProc struct {
	cmd     *exec.Cmd
	addr    string // host:port
	snapDir string
	walDir  string
	logFile *os.File
	done    chan error // receives cmd.Wait's result once
}

// freeAddr picks a loopback port for the next node. The port is released
// before the node binds it; on loopback nothing else competes for it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// setUp is one timed set-up: indexbuild writes the snapshot into a fresh
// snapshot directory, then a fresh servenode starts over it and is polled
// until /readyz answers 200. It returns the running node and the elapsed
// time.
func setUp(w *workload, binDir, dir string, seed int64) (*nodeProc, time.Duration, error) {
	snapDir := filepath.Join(dir, "snap")
	walDir := filepath.Join(dir, "wal")
	for _, d := range []string{snapDir, walDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, 0, err
		}
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logFile, err := os.Create(filepath.Join(dir, "node.log"))
	if err != nil {
		return nil, 0, err
	}

	start := time.Now()
	build := exec.Command(filepath.Join(binDir, "indexbuild"),
		w.indexbuildFlags(seed, filepath.Join(snapDir, w.venue+"@0001.snap"))...)
	build.Stdout, build.Stderr = logFile, logFile
	if err := build.Run(); err != nil {
		logFile.Close()
		return nil, 0, fmt.Errorf("indexbuild: %w", err)
	}
	cmd := exec.Command(filepath.Join(binDir, "servenode"), w.nodeFlags(snapDir, walDir, addr)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, 0, fmt.Errorf("servenode: %w", err)
	}
	n := &nodeProc{cmd: cmd, addr: addr, snapDir: snapDir, walDir: walDir, logFile: logFile, done: make(chan error, 1)}
	go func() { n.done <- cmd.Wait() }()
	if err := n.waitReady(30 * time.Second); err != nil {
		n.stop()
		return nil, 0, err
	}
	return n, time.Since(start), nil
}

// waitReady polls /readyz every 2 ms until it answers 200.
func (n *nodeProc) waitReady(limit time.Duration) error {
	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case err := <-n.done:
			n.done <- err
			return fmt.Errorf("servenode exited before ready: %v", err)
		default:
		}
		resp, err := client.Get("http://" + n.addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("servenode not ready within " + limit.String())
}

// statusMB reads a memory field of /proc/<pid>/status ("VmRSS", "VmHWM")
// in MiB.
func (n *nodeProc) statusMB(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s not in /proc/%d/status", field, n.cmd.Process.Pid)
}

// cpuSeconds is the node's user plus system CPU time so far.
func (n *nodeProc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the line, in clock ticks of 1/100 s.
	rest := string(data[strings.LastIndexByte(string(data), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / 100, nil
}

// stop sends SIGTERM, waits for the drain (killing the node after 30 s) and
// reports a non-zero exit.
func (n *nodeProc) stop() error {
	defer n.logFile.Close()
	_ = n.cmd.Process.Signal(syscall.SIGTERM) // an exited process is reported by Wait below
	select {
	case err := <-n.done:
		return err
	case <-time.After(30 * time.Second):
		_ = n.cmd.Process.Kill()
		<-n.done
		return errors.New("servenode did not drain within 30s; killed")
	}
}
