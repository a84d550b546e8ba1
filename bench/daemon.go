package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// findRoot walks up from the working directory to the cloudgraph module
// root — the directory whose go.mod declares `module cloudgraph` — so the
// benchmark runs the same from the checkout root (the driver), from
// bench/ (`go -C bench run .`) and from `go test`.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(b)), "module cloudgraph\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cloudgraph module root not found above the working directory (the benchmark builds cloudgraphd from source)")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/cloudgraphd from the checkout into binDir and
// reports how long the (usually cached) build took.
func buildDaemon(root, binDir string) (string, time.Duration, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", 0, err
	}
	bin := filepath.Join(binDir, "cloudgraphd")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cloudgraphd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/cloudgraphd: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

var (
	listenRE = regexp.MustCompile(`listening on (\S+)`)
	opsRE    = regexp.MustCompile(`ops endpoint on http://(\S+)`)
)

// daemon is one cloudgraphd child under benchmark control.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // analytics TCP endpoint
	opsAddr string // ops HTTP endpoint
	dataDir string
	logDone chan struct{}

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

// startDaemon launches the binary on free ports against a fresh data-dir
// with daemon defaults otherwise, and waits for both listen addresses on
// its log.
func startDaemon(bin, dataDir string, window time.Duration) (*daemon, error) {
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-ops", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-window", window.String(),
		"-log-level", "warn",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, dataDir: dataDir, logDone: make(chan struct{})}
	addrCh := make(chan string, 1)
	opsCh := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.tail = append(d.tail, line)
			if len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
			if m := opsRE.FindStringSubmatch(line); m != nil {
				select {
				case opsCh <- m[1]:
				default:
				}
			}
		}
	}()
	timeout := time.After(30 * time.Second)
	for d.addr == "" || d.opsAddr == "" {
		select {
		case d.addr = <-addrCh:
		case d.opsAddr = <-opsCh:
		case <-d.logDone:
			d.stop()
			return nil, fmt.Errorf("daemon exited during startup:\n%s", d.logTail())
		case <-timeout:
			d.stop()
			return nil, fmt.Errorf("daemon never reported its listen addresses:\n%s", d.logTail())
		}
	}
	return d, nil
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// stop ends the child — SIGTERM, then SIGKILL after a grace period — and
// reaps it. Safe to call twice.
func (d *daemon) stop() {
	if d.cmd.ProcessState != nil {
		return
	}
	// Signal errors mean the process is already gone; Wait reaps it
	// either way, and its "signal: terminated" status is the expected one.
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	kill := time.AfterFunc(5*time.Second, func() { _ = d.cmd.Process.Kill() })
	<-d.logDone // Wait closes the pipe; let the log reader finish first
	_ = d.cmd.Wait()
	kill.Stop()
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times. It is 100 on every Linux ABI Go supports.
const clockTick = 100

// cpuSeconds reads the child's user+system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	return procCPUSeconds(d.cmd.Process.Pid)
}

func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The comm field may hold spaces; fields are counted after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat: %q", s)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", s)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc stat: %q", s)
	}
	return float64(utime+stime) / clockTick, nil
}

// rssPeakMB reads the child's peak resident set (VmHWM).
func (d *daemon) rssPeakMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// diskBytes sums regular files under the data-dir, leaving out the
// diagnostic bundles: they are triage artifacts, not history.
func (d *daemon) diskBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(d.dataDir, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() {
			if path == filepath.Join(d.dataDir, "diag") {
				return filepath.SkipDir
			}
			return nil
		}
		info, err := de.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// diagBundles counts the anomaly bundles the run triggered. A bundle
// captures a CPU profile, which perturbs the run it lands in.
func (d *daemon) diagBundles() int {
	ents, err := os.ReadDir(filepath.Join(d.dataDir, "diag"))
	if err != nil {
		return 0
	}
	return len(ents)
}

func (d *daemon) get(path string) ([]byte, error) {
	c := http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get("http://" + d.opsAddr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// promSeries is one scrape of /metrics: `name{labels}` → value.
type promSeries map[string]float64

// metrics scrapes the daemon's Prometheus endpoint once.
func (d *daemon) metrics() (promSeries, error) {
	b, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := make(promSeries)
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// sumPrefix adds every series whose name (before the label set) is name.
func (p promSeries) sumPrefix(name string) float64 {
	var total float64
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// meanMS is a histogram's mean in milliseconds (sum/count), 0 when it
// never observed anything.
func (p promSeries) meanMS(name, labels string) float64 {
	count := p[name+"_count"+labels]
	if count == 0 {
		return 0
	}
	return p[name+"_sum"+labels] / count * 1e3
}

// tenantRow is the slice of a /tenantz row the benchmark reads.
type tenantRow struct {
	Tenant          string  `json:"tenant"`
	Records         int64   `json:"records"`
	IngestSeconds   float64 `json:"ingest_seconds"`
	AnalysisSeconds float64 `json:"analysis_seconds"`
	SealedEpoch     uint64  `json:"sealed_epoch"`
	BurnedWindows   uint64  `json:"burned_windows"`
}

// tenantz reads the per-tenant COGS view once.
func (d *daemon) tenantz() (map[string]tenantRow, error) {
	b, err := d.get("/tenantz?format=json")
	if err != nil {
		return nil, err
	}
	var page struct {
		Tenants []tenantRow `json:"tenants"`
	}
	if err := json.Unmarshal(b, &page); err != nil {
		return nil, fmt.Errorf("/tenantz: %w", err)
	}
	out := make(map[string]tenantRow, len(page.Tenants))
	for _, row := range page.Tenants {
		out[row.Tenant] = row
	}
	return out, nil
}
