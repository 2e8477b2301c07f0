package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// daemon is one shogund child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	exited chan error
}

// startDaemon boots shogund with -workers 2 plus extra flags, and
// returns once /readyz answers 200. The child is killed if this process
// dies first.
func startDaemon(ctx context.Context, o options, name string, extra ...string) (*daemon, error) {
	addrFile := filepath.Join(o.workdir, name+".addr")
	_ = os.Remove(addrFile) // stale file from an earlier run; absence is fine
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-addr-file", addrFile}, extra...)
	d := &daemon{exited: make(chan error, 1)}
	logf, err := os.Create(filepath.Join(o.workdir, name+".log"))
	if err != nil {
		return nil, err
	}
	d.cmd = exec.Command(o.shogund, args...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start shogund: %w", err)
	}
	go func() {
		d.exited <- d.cmd.Wait()
		logf.Close()
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(bytes.TrimSpace(b)) > 0 {
			d.base = "http://" + strings.TrimSpace(string(b))
			if resp, err := http.Get(d.base + "/readyz"); err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // readiness probe
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		select {
		case err := <-d.exited:
			d.exited <- err
			return nil, fmt.Errorf("shogund exited before ready (%v); see %s.log", err, name)
		case <-ctx.Done():
			d.stop() //nolint:errcheck // already failing
			return nil, ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop() //nolint:errcheck // already failing
			return nil, fmt.Errorf("shogund not ready after 30s")
		}
	}
}

// stop drains the daemon with SIGTERM (which flushes its access log)
// and waits for it to exit, killing it if the drain overruns.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("stop shogund: %w", err)
	}
	select {
	case err := <-d.exited:
		d.exited <- err
		if err != nil {
			return fmt.Errorf("shogund drain: %w", err)
		}
		return nil
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // already failing
		<-d.exited
		return fmt.Errorf("shogund did not drain within 20s")
	}
}

// cacheStats is the part of /statz the benchmark reads.
type cacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

type statz struct {
	Graphs    cacheStats `json:"graph_cache"`
	Schedules cacheStats `json:"schedule_cache"`
}

func (d *daemon) statz(c *http.Client) (statz, error) {
	var st statz
	resp, err := c.Get(d.base + "/statz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("statz: %w", err)
	}
	return st, nil
}

// accessEntry is one line of shogund's JSON access log.
type accessEntry struct {
	Trace    string `json:"trace"`
	WallUS   int64  `json:"wall_us"`
	Parse    int64  `json:"parse_us"`
	Queue    int64  `json:"queue_us"`
	Graph    int64  `json:"graph_us"`
	Schedule int64  `json:"schedule_us"`
	Run      int64  `json:"run_us"`
	Encode   int64  `json:"encode_us"`
}

// phase is one server phase's time, named by its metric stem.
type phase struct {
	name string
	us   int64
}

// phases lists the server phases in request order.
func (e accessEntry) phases() []phase {
	return []phase{{"parse", e.Parse}, {"queue", e.Queue}, {"graph", e.Graph},
		{"schedule", e.Schedule}, {"run", e.Run}, {"encode", e.Encode}}
}

// readAccessLog indexes the access log by trace ID.
func readAccessLog(path string) (map[string]accessEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]accessEntry{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var e accessEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("access log: %w", err)
		}
		out[e.Trace] = e
	}
	return out, sc.Err()
}
