package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one started stored or experimentd process.
type daemon struct {
	name string
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once stdout is drained
}

// start runs bin/name with args and waits for its "listening on URL"
// stdout line — the readiness signal both daemons print first — instead of
// polling for it.
func (b *bench) start(name string, args ...string) (*daemon, error) {
	cmd := exec.Command(filepath.Join(b.bin, name), args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workers), "TMPDIR="+b.root)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, done: make(chan struct{})}
	b.mu.Lock()
	b.procs[d] = true
	b.mu.Unlock()
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	go func() {
		io.Copy(io.Discard, br) //repro:degrade stdout after the first line is unused; draining keeps the pipe from blocking the child
		close(d.done)
	}()
	const marker = "listening on "
	i := strings.Index(line, marker)
	if err != nil || i < 0 {
		b.stop(d) //repro:degrade the missing readiness line is the error to report
		return nil, fmt.Errorf("%s never reported its address (first line %q): %v", name, line, err)
	}
	d.url = strings.TrimSpace(line[i+len(marker):])
	return d, nil
}

// startStored starts one stored over a fresh directory on a free port.
func (b *bench) startStored() (*daemon, error) {
	dir, err := b.tempDir("stored-")
	if err != nil {
		return nil, err
	}
	return b.start("stored", "-dir", dir, "-addr", "127.0.0.1:0")
}

// stop ends d with SIGTERM (both daemons drain and exit cleanly on it),
// killing it if it has not exited in 10 s, and waits for it.
func (b *bench) stop(d *daemon) error {
	b.mu.Lock()
	running := b.procs[d]
	delete(b.procs, d)
	b.mu.Unlock()
	if !running {
		return nil
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	exited := make(chan error, 1)
	go func() {
		<-d.done
		exited <- d.cmd.Wait()
	}()
	select {
	case err := <-exited:
		return err
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill() //repro:degrade the wait below reports the outcome
		return fmt.Errorf("%s ignored SIGTERM: %v", d.name, <-exited)
	}
}

// cpu returns the daemon's CPU time so far.
func (d *daemon) cpu() (time.Duration, error) { return procCPU(d.cmd.Process.Pid) }

// scrape reads the daemon's /v1/metrics as series name (with labels) →
// value.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get(d.url + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /v1/metrics: %s", d.name, resp.Status)
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("%s /v1/metrics: %q: %w", d.name, line, err)
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// stats decodes the daemon's /v1/stats into v.
func (d *daemon) stats(v any) error {
	resp, err := http.Get(d.url + "/v1/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s /v1/stats: %s", d.name, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrapeSet is /v1/stats then /v1/metrics of every daemon, in that order,
// so a later scrape's request counts include exactly one stats request
// from this one.
type scrapeSet struct {
	metrics []map[string]float64
	stats   []map[string]any
}

func scrapeAll(ds []*daemon) (scrapeSet, error) {
	var s scrapeSet
	for _, d := range ds {
		st := map[string]any{}
		if err := d.stats(&st); err != nil {
			return s, err
		}
		m, err := d.scrape()
		if err != nil {
			return s, err
		}
		s.stats = append(s.stats, st)
		s.metrics = append(s.metrics, m)
	}
	return s, nil
}

// histDelta returns the change in count and summed seconds of one
// endpoint's request-duration histogram across the daemons named prefix.
func histDelta(before, after scrapeSet, prefix, endpoint string) (count, sum float64) {
	c := fmt.Sprintf("%s_request_duration_seconds_count{endpoint=%q}", prefix, endpoint)
	s := fmt.Sprintf("%s_request_duration_seconds_sum{endpoint=%q}", prefix, endpoint)
	for i := range after.metrics {
		count += after.metrics[i][c] - before.metrics[i][c]
		sum += after.metrics[i][s] - before.metrics[i][s]
	}
	return count, sum
}

// requestDelta counts the requests the daemons named prefix served between
// two scrape sets, less the scrapes themselves (the metrics endpoint, and
// the one stats request each later set makes before its metrics scrape).
func requestDelta(before, after scrapeSet, prefix string) float64 {
	var total float64
	for i := range after.metrics {
		for k, v := range after.metrics[i] {
			if strings.HasPrefix(k, prefix+"_requests_total{") && !strings.Contains(k, `endpoint="metrics"`) {
				total += v - before.metrics[i][k]
			}
		}
		total-- // the later set's own stats request
	}
	return total
}

// logRequestMix writes the per-endpoint requests per op the daemons named
// prefix served between two scrape sets (the scrapes themselves included).
func logRequestMix(before, after scrapeSet, prefix string, ops int) {
	mix := map[string]float64{}
	for i := range after.metrics {
		for k, v := range after.metrics[i] {
			if strings.HasPrefix(k, prefix+"_requests_total{") {
				mix[strings.TrimPrefix(k, prefix+"_requests_total")] += v - before.metrics[i][k]
			}
		}
	}
	keys := make([]string, 0, len(mix))
	for k, v := range mix {
		if v != 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%.2f", k, mix[k]/float64(ops))
	}
	logf("%s requests per op over %d traced ops:%s", prefix, ops, b.String())
}
