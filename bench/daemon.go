package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"radiobcast/client"
)

// daemon is one radiobcastd child process serving on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	client *client.Client
	conns  *http.Transport
	done   chan struct{} // closed once the process has exited and been reaped
	err    error         // the Wait result; read it only after done is closed
	log    logTail
}

// servingLine is how radiobcastd reports its listen address on stderr.
var servingLine = regexp.MustCompile(`radiobcastd: serving on (\S+)`)

// startDaemon runs bin on an ephemeral 127.0.0.1 port with rate limiting
// off (all benchmark traffic comes from one address, which the default
// token bucket would throttle), waits until /readyz answers 200, and
// returns the daemon with a client of conns keep-alive connections.
func startDaemon(ctx context.Context, bin string, conns int, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-rate", "-1"}, args...)...)
	// The daemon must not outlive the benchmark, even if the benchmark is
	// killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			d.log.add(sc.Text())
			if m := servingLine.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		// Keep draining after an over-long line so the child never blocks
		// on a full pipe.
		_, _ = io.Copy(io.Discard, stderr)
		d.err = cmd.Wait()
		close(d.done)
	}()

	timer := time.NewTimer(15 * time.Second)
	defer timer.Stop()
	select {
	case a := <-addr:
		d.conns = &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
		d.client = client.New("http://"+a, client.WithHTTPClient(&http.Client{Transport: d.conns}))
	case <-d.done:
		return nil, fmt.Errorf("radiobcastd exited before serving (%v):\n%s", d.err, &d.log)
	case <-timer.C:
		d.kill()
		return nil, fmt.Errorf("radiobcastd did not report a listen address within 15s:\n%s", &d.log)
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
	for {
		err := d.client.Ready(ctx)
		if err == nil {
			return d, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("radiobcastd exited before ready (%v):\n%s", d.err, &d.log)
		case <-timer.C:
			d.kill()
			return nil, fmt.Errorf("radiobcastd not ready within 15s: %v", err)
		case <-ctx.Done():
			d.kill()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// stop sends SIGTERM and waits for the graceful drain; a daemon that
// fails to drain cleanly (non-zero exit) is an error, since with a store
// the drain is what makes the index durable.
func (d *daemon) stop() error {
	d.conns.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("radiobcastd did not drain within 30s:\n%s", &d.log)
	}
	if d.err != nil {
		return fmt.Errorf("radiobcastd did not drain cleanly (%v):\n%s", d.err, &d.log)
	}
	return nil
}

// kill ends the process without a drain and waits until it is reaped.
func (d *daemon) kill() {
	if !d.exited() {
		_ = d.cmd.Process.Kill()
	}
	<-d.done
}

// logTail keeps the last lines of the daemon's stderr for error reports.
type logTail struct {
	mu    sync.Mutex
	lines []string
}

func (t *logTail) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.lines) == 40 {
		t.lines = t.lines[1:]
	}
	t.lines = append(t.lines, line)
}

func (t *logTail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// snapshot is the daemon's state at one instant: its /metrics samples and
// its CPU time.
type snapshot struct {
	metrics  map[string]float64
	cpuTicks int64
}

func (d *daemon) snapshot(ctx context.Context) (snapshot, error) {
	var s snapshot
	text, err := d.client.Metrics(ctx)
	if err != nil {
		return s, fmt.Errorf("scraping /metrics: %w", err)
	}
	s.metrics = parseMetrics(text)
	s.cpuTicks, err = cpuTicks(d.pid())
	return s, err
}

// parseMetrics reads the Prometheus text format into sample → value,
// keyed by the sample name with its labels, e.g.
// `radiobcastd_request_seconds_sum{endpoint="run"}`.
func parseMetrics(text string) map[string]float64 {
	m := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// ticksPerSecond is Linux's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; it is 100 on every mainstream architecture.
const ticksPerSecond = 100

// cpuTicks returns the process's user plus system CPU time in clock ticks.
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; the fields after it
	// start at field 3, so utime and stime (fields 14 and 15) are the 12th
	// and 13th.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return ut + st, nil
}

// statusMB returns a size field of /proc/<pid>/status, such as VmRSS or
// VmHWM, in MiB.
func statusMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed %s line %q", field, line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}
