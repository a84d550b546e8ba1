// Command flowgen generates synthetic connection-summary telemetry for one
// of the paper's Table 1 datasets and writes it to a file, in the binary
// wire format (default) or CSV. The output replays through graphctl or
// cloudgraphd exactly as live telemetry would.
//
// With -tenants N (N > 1) flowgen simulates N independent subscriptions
// — one deterministic cluster per tenant, seeded from the preset — and
// interleaves their records chronologically into one tagged-frame
// capture (a .tflows file: each frame carries its tenant tag, the same
// framing `graphctl send` replays and cloudgraphd's decoder trusts).
// -tenant-skew zipf thins tenant i to 1/(i+1) of its records, so
// tenant-00 dominates the stream the way one hot subscription dominates
// a region; uniform keeps every tenant at full volume.
//
// Usage:
//
//	flowgen -dataset k8spaas -scale 0.25 -hours 2 -out k8s.flows
//	flowgen -dataset microservicebench -attack exfil -provider gcp -format csv -out m.csv
//	flowgen -dataset microservicebench -tenants 8 -tenant-skew zipf -out multi.tflows
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net/netip"
	"os"
	"slices"
	"strings"
	"time"

	"cloudgraph/internal/analytics"
	"cloudgraph/internal/cluster"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/nicsim"
)

// options are flowgen's flags.
type options struct {
	dataset  string
	scale    float64
	hours    int
	out      string
	format   string
	provider string
	attack   string
	start    int64
	seed     int64
	tenants  int
	skew     string
}

// attacks are the scenario names -attack accepts (addAttack wires them).
var attacks = []string{"scan", "lateral", "exfil", "beacon"}

// check rejects flag values that would only fail once a cluster has been
// built and simulated, or that would quietly write nothing.
func (o *options) check() error {
	if o.format != "binary" && o.format != "csv" {
		return fmt.Errorf("unknown format %q (binary or csv)", o.format)
	}
	if o.hours < 1 {
		return fmt.Errorf("-hours %d: need at least one hour", o.hours)
	}
	if o.skew != "zipf" && o.skew != "uniform" {
		return fmt.Errorf("unknown tenant skew %q (zipf or uniform)", o.skew)
	}
	if _, err := providerProfile(o.provider); err != nil {
		return err
	}
	if o.attack != "" && !slices.Contains(attacks, o.attack) {
		return fmt.Errorf("unknown attack %q (%s)", o.attack, strings.Join(attacks, ", "))
	}
	if o.tenants > 1 && o.format != "binary" {
		return fmt.Errorf("-tenants needs binary output (tagged frames), not %q", o.format)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("flowgen: ")
	var o options
	flag.StringVar(&o.dataset, "dataset", "microservicebench", "dataset preset: portal, microservicebench, k8spaas, kquery")
	flag.Float64Var(&o.scale, "scale", 0.25, "dataset scale in (0, 1]")
	flag.IntVar(&o.hours, "hours", 1, "hours of telemetry to generate")
	flag.StringVar(&o.out, "out", "-", "output file (- for stdout)")
	flag.StringVar(&o.format, "format", "binary", "output format: binary or csv")
	flag.StringVar(&o.provider, "provider", "", "apply a provider sampling profile: azure, aws or gcp")
	flag.StringVar(&o.attack, "attack", "", "inject an attack in the final hour: scan, lateral, exfil or beacon")
	flag.Int64Var(&o.start, "start", 1700000000, "unix start time (seconds)")
	flag.Int64Var(&o.seed, "seed", 0, "override the preset's deterministic seed")
	flag.IntVar(&o.tenants, "tenants", 1, "simulate this many tenant subscriptions and interleave them into a tagged-frame capture (1 = untagged single-tenant output)")
	flag.StringVar(&o.skew, "tenant-skew", "zipf", "multi-tenant volume skew: zipf (tenant i carries 1/(i+1) of its records) or uniform")
	flag.Parse()
	if err := o.check(); err != nil {
		log.Fatal(err)
	}

	spec, err := cluster.Preset(o.dataset, o.scale)
	if err != nil {
		log.Fatal(err)
	}
	if o.seed != 0 {
		spec.Seed = o.seed
	}
	t0 := time.Unix(o.start, 0).UTC().Truncate(time.Minute)
	if o.tenants > 1 {
		genTenants(spec, t0, &o)
		return
	}
	c, err := cluster.New(spec)
	if err != nil {
		log.Fatal(err)
	}
	if o.attack != "" {
		if err := addAttack(c, o.attack, t0.Add(time.Duration(o.hours-1)*time.Hour)); err != nil {
			log.Fatal(err)
		}
	}

	w := create(o.out)
	bw := bufio.NewWriterSize(w, 1<<20)
	sampler := newSampler(o.provider, spec.Seed)

	written := 0
	var frame []byte
	emit := func(recs []flowlog.Record) error {
		for _, r := range recs {
			if sampler != nil {
				var ok bool
				if r, ok = sampler.Sample(r); !ok {
					continue
				}
			}
			var err error
			if o.format == "binary" {
				frame = flowlog.AppendBinary(frame[:0], r)
				_, err = bw.Write(frame)
			} else {
				_, err = fmt.Fprintln(bw, r.MarshalCSV())
			}
			if err != nil {
				return err
			}
			written++
		}
		return nil
	}

	genStart := time.Now()
	if _, err := c.Run(t0, o.hours*60, nicsim.CollectorFunc(emit)); err != nil {
		log.Fatal(err)
	}
	finish(bw, w)
	fmt.Fprintf(os.Stderr, "flowgen: %s scale=%.2f: %d records over %dh (%d monitored VMs) in %v\n",
		spec.Name, o.scale, written, o.hours, c.MonitoredIPs(), time.Since(genStart).Round(time.Millisecond))
}

// create opens the output: stdout for "-", else a new file.
func create(out string) *os.File {
	if out == "-" {
		return os.Stdout
	}
	w, err := os.Create(out)
	if err != nil {
		log.Fatal(err)
	}
	return w
}

// finish flushes bw and closes w unless it is stdout, failing on either
// error: a write the kernel defers can surface only at Close.
func finish(bw *bufio.Writer, w *os.File) {
	if err := bw.Flush(); err != nil {
		log.Fatal(err)
	}
	if w == os.Stdout {
		return
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
}

// providerProfile returns the named provider sampling profile, the zero
// Provider for "" (no sampling).
func providerProfile(provider string) (flowlog.Provider, error) {
	switch strings.ToLower(provider) {
	case "":
		return flowlog.Provider{}, nil
	case "azure":
		return flowlog.Azure, nil
	case "aws":
		return flowlog.AWS, nil
	case "gcp":
		return flowlog.GCP, nil
	}
	return flowlog.Provider{}, fmt.Errorf("unknown provider %q (azure, aws or gcp)", provider)
}

// newSampler builds the named provider sampling profile, nil for none.
// The name has passed options.check.
func newSampler(provider string, seed int64) *flowlog.Sampler {
	if provider == "" {
		return nil
	}
	p, _ := providerProfile(provider)
	return flowlog.NewSampler(p, uint64(seed))
}

// genTenants simulates o.tenants independent tenant subscriptions — one
// deterministic cluster each, seeded preset.Seed+i — and interleaves
// their records chronologically into one tagged-frame capture.
func genTenants(spec cluster.Spec, t0 time.Time, o *options) {
	n, hours := o.tenants, o.hours
	keepEvery := func(i int) int { return 1 }
	if o.skew == "zipf" {
		keepEvery = func(i int) int { return i + 1 }
	}
	names := make([]string, n)
	streams := make([][]flowlog.Record, n)
	total := 0
	genStart := time.Now()
	for i := range n {
		names[i] = fmt.Sprintf("tenant-%02d", i)
		s := spec
		s.Seed = spec.Seed + int64(i)
		c, err := cluster.New(s)
		if err != nil {
			log.Fatal(err)
		}
		if o.attack != "" && i == 0 {
			// The attack lands on the dominant tenant only: the breach
			// one subscription suffers that its neighbors must not see.
			if err := addAttack(c, o.attack, t0.Add(time.Duration(hours-1)*time.Hour)); err != nil {
				log.Fatal(err)
			}
		}
		sampler := newSampler(o.provider, s.Seed)
		keep := keepEvery(i)
		seen := 0
		collect := func(recs []flowlog.Record) error {
			for _, r := range recs {
				if sampler != nil {
					var ok bool
					if r, ok = sampler.Sample(r); !ok {
						continue
					}
				}
				if seen%keep == 0 {
					streams[i] = append(streams[i], r)
				}
				seen++
			}
			return nil
		}
		if _, err := c.Run(t0, hours*60, nicsim.CollectorFunc(collect)); err != nil {
			log.Fatal(err)
		}
		total += len(streams[i])
	}

	w := create(o.out)
	bw := bufio.NewWriterSize(w, 1<<20)

	// K-way chronological merge: each stream is already time-ordered, so
	// the capture interleaves tenants the way one region's collector sees
	// their NICs report. Ties go to the lower tenant index — fully
	// deterministic, so a capture regenerates byte-identically.
	idx := make([]int, n)
	var buf []byte
	for {
		best := -1
		for i := range n {
			if idx[i] >= len(streams[i]) {
				continue
			}
			if best < 0 || streams[i][idx[i]].Time.Before(streams[best][idx[best]].Time) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		buf = analytics.AppendTagged(buf[:0], streams[best][idx[best]], names[best])
		if _, err := bw.Write(buf); err != nil {
			log.Fatal(err)
		}
		idx[best]++
	}
	finish(bw, w)
	fmt.Fprintf(os.Stderr, "flowgen: %s x%d tenants (%s skew): %d tagged records over %dh in %v\n",
		spec.Name, n, o.skew, total, hours, time.Since(genStart).Round(time.Millisecond))
}

// addAttack wires a named attack scenario starting at attackStart.
func addAttack(c *cluster.Cluster, name string, attackStart time.Time) error {
	victim := victimRole(c)
	if victim == "" {
		return fmt.Errorf("no internal role to attack")
	}
	c2 := netip.MustParseAddr("198.51.100.66")
	switch name {
	case "scan":
		c.AddAttack(cluster.PortScan{
			AttackerRole: victim, AttackerIdx: 0, TargetRole: victim,
			PortsPerMin: 60, Start: attackStart, Duration: time.Hour,
		})
	case "lateral":
		c.AddAttack(cluster.LateralMovement{
			AttackerRole: victim, AttackerIdx: 0, TargetRole: victim,
			FlowsPerMin: 10, Bytes: 8192, Start: attackStart, Duration: time.Hour,
		})
	case "exfil":
		c.AddAttack(cluster.Exfiltration{
			SourceRole: victim, SourceIdx: 0, Destination: c2,
			BytesPerMin: 80_000_000, Start: attackStart, Duration: 30 * time.Minute,
		})
	case "beacon":
		c.AddAttack(cluster.Beacon{
			SourceRole: victim, SourceIdx: 0, C2: c2, Period: 5 * time.Minute,
			Bytes: 512, Start: attackStart, Duration: time.Hour,
		})
	default:
		return fmt.Errorf("unknown attack %q (scan, lateral, exfil, beacon)", name)
	}
	return nil
}

// victimRole picks the first internal role of the spec as the breach point.
func victimRole(c *cluster.Cluster) string {
	for _, r := range c.Spec().Roles {
		if !r.External {
			return r.Name
		}
	}
	return ""
}
