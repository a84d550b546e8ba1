// Command flowgen generates synthetic connection-summary telemetry for one
// of the paper's Table 1 datasets and writes it to a file, in the binary
// wire format (default) or CSV. The output replays through graphctl or
// cloudgraphd exactly as live telemetry would.
//
// With -tenants N (N > 1) flowgen simulates N independent subscriptions
// — one deterministic cluster per tenant, seeded from the preset — and
// interleaves their records chronologically, minute by minute, into one
// tagged-frame capture (a .tflows file: each frame carries its tenant
// tag, the same framing `graphctl send` replays and cloudgraphd's decoder
// trusts).
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
	if o.tenants < 1 {
		return fmt.Errorf("-tenants %d: need at least one tenant", o.tenants)
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
	generate(spec, t0, &o)
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

// tenant is one simulated subscription: its cluster, sampler and zipf
// thinning, and the records of the minute being generated.
type tenant struct {
	name    string
	c       *cluster.Cluster
	sampler *flowlog.Sampler
	keep    int // keep every keep-th sampled record
	seen    int // sampled records so far
	minute  []flowlog.Record
}

// collect samples and thins one batch into the tenant's minute.
func (tn *tenant) collect(recs []flowlog.Record) error {
	for _, r := range recs {
		if tn.sampler != nil {
			var ok bool
			if r, ok = tn.sampler.Sample(r); !ok {
				continue
			}
		}
		if tn.seen%tn.keep == 0 {
			tn.minute = append(tn.minute, r)
		}
		tn.seen++
	}
	return nil
}

// generate simulates o.tenants independent subscriptions — one
// deterministic cluster each, tenant i seeded preset.Seed+i — minute by
// minute, and writes each minute's records merged chronologically. One
// tenant writes untagged frames or CSV; several write one tagged-frame
// capture. Only one minute of records is held at a time.
func generate(spec cluster.Spec, t0 time.Time, o *options) {
	tenants := make([]*tenant, o.tenants)
	for i := range tenants {
		s := spec
		s.Seed = spec.Seed + int64(i)
		c, err := cluster.New(s)
		if err != nil {
			log.Fatal(err)
		}
		if o.attack != "" && i == 0 {
			// The attack lands on the dominant tenant only: the breach
			// one subscription suffers that its neighbors must not see.
			if err := addAttack(c, o.attack, t0.Add(time.Duration(o.hours-1)*time.Hour)); err != nil {
				log.Fatal(err)
			}
		}
		tn := &tenant{c: c, sampler: newSampler(o.provider, s.Seed), keep: 1}
		if o.tenants > 1 {
			tn.name = fmt.Sprintf("tenant-%02d", i)
			if o.skew == "zipf" {
				tn.keep = i + 1
			}
		}
		tenants[i] = tn
	}

	w := create(o.out)
	bw := bufio.NewWriterSize(w, 1<<20)
	written := 0
	var buf []byte
	write := func(tn *tenant, r flowlog.Record) {
		var err error
		switch {
		case tn.name != "":
			buf = analytics.AppendTagged(buf[:0], r, tn.name)
			_, err = bw.Write(buf)
		case o.format == "binary":
			buf = flowlog.AppendBinary(buf[:0], r)
			_, err = bw.Write(buf)
		default:
			_, err = fmt.Fprintln(bw, r.MarshalCSV())
		}
		if err != nil {
			log.Fatal(err)
		}
		written++
	}

	genStart := time.Now()
	idx := make([]int, len(tenants))
	for m := range o.hours * 60 {
		t := t0.Add(time.Duration(m) * time.Minute)
		for i, tn := range tenants {
			tn.minute = tn.minute[:0]
			if _, err := tn.c.Run(t, 1, nicsim.CollectorFunc(tn.collect)); err != nil {
				log.Fatal(err)
			}
			idx[i] = 0
		}
		// K-way chronological merge: each tenant's minute is already
		// time-ordered, so the capture interleaves tenants the way one
		// region's collector sees their NICs report. Ties go to the lower
		// tenant index — fully deterministic, so a capture regenerates
		// byte-identically. Every record of a minute carries that
		// minute's start, so merging minute by minute is merging the
		// whole streams.
		for {
			best := -1
			for i, tn := range tenants {
				if idx[i] >= len(tn.minute) {
					continue
				}
				if best < 0 || tn.minute[idx[i]].Time.Before(tenants[best].minute[idx[best]].Time) {
					best = i
				}
			}
			if best < 0 {
				break
			}
			write(tenants[best], tenants[best].minute[idx[best]])
			idx[best]++
		}
	}
	finish(bw, w)
	fmt.Fprintf(os.Stderr, "flowgen: %s scale=%.2f x%d tenants (%s skew): %d records over %dh (%d monitored VMs each) in %v\n",
		spec.Name, o.scale, len(tenants), o.skew, written, o.hours, tenants[0].c.MonitoredIPs(), time.Since(genStart).Round(time.Millisecond))
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
