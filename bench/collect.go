package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"cloudgraph/internal/flowlog"
)

// readDaemon reads, once and from outside, what the daemon and the OS
// metered over the run: memory, disk, the Prometheus endpoint and the
// per-tenant COGS view.
func (s *state) readDaemon(rep *report, m measured, daemonCPU float64) error {
	rss, err := s.d.rssPeakMB()
	if err != nil {
		return err
	}
	rep.set("rss_peak_mb", rss, "MB")
	disk, err := s.d.diskBytes()
	if err != nil {
		return err
	}
	windows := float64(s.epochs) * float64(len(s.names))
	rep.set("disk_kb_per_window", float64(disk)/1024/windows, "KB")
	rep.Samples["disk_kb_per_window"] = int(windows)

	prom, err := s.d.metrics()
	if err != nil {
		return err
	}
	for _, name := range runnerNames {
		rep.set("daemon.analysis_ms_per_window."+name,
			prom.meanMS("cloudgraph_analysis_run_seconds", `{analysis="`+name+`"}`), "ms")
		rep.set("daemon.seal_to_stage_ms_mean.analyzed."+name,
			prom.meanMS("cloudgraph_watermark_latency_seconds", `{stage="analyzed.`+name+`"}`), "ms")
	}
	for _, stage := range []string{"published", "durable"} {
		rep.set("daemon.seal_to_stage_ms_mean."+stage,
			prom.meanMS("cloudgraph_watermark_latency_seconds", `{stage="`+stage+`"}`), "ms")
	}
	dropped := prom.sumPrefix("cloudgraph_core_bus_dropped_total")
	rep.set("daemon.bus_dropped", dropped, "count")
	for i := 0; i < int(dropped); i++ {
		s.o.fail("a bus consumer dropped a window")
	}
	rep.set("daemon.diag_bundles", float64(s.d.diagBundles()), "count")

	tenants, err := s.d.tenantz()
	if err != nil {
		return err
	}
	var records, ingestS, analysisS, burned float64
	for _, row := range tenants {
		records += float64(row.Records)
		ingestS += row.IngestSeconds
		analysisS += row.AnalysisSeconds
		burned += float64(row.BurnedWindows)
	}
	rep.set("daemon.slo_burned_windows", burned, "count")
	rep.set("realm.cogs_ingest_s_per_mrec", ingestS/records*1e6, "s/Mrec")
	rep.set("realm.cogs_analysis_s_per_mrec", analysisS/records*1e6, "s/Mrec")

	// Per tenant: every acked record counted, every expected window sealed.
	for i := range s.names {
		row, ok := tenants[s.tenantOf(i)]
		switch {
		case !ok:
			s.o.fail("/tenantz has no row for %s", s.tenantOf(i))
		case row.Records != s.sent[i]:
			s.o.fail("%s: daemon counted %d records, %d were acked", s.tenantOf(i), row.Records, s.sent[i])
		case row.SealedEpoch != s.epochs:
			s.o.fail("%s: %d windows sealed, expected %d", s.tenantOf(i), row.SealedEpoch, s.epochs)
		default:
			s.o.ok(1)
		}
	}

	// The work the run gave each layer, for layers.accounted_pct.
	rep.work = runWork{
		records:   float64(m.records),
		windows:   float64(s.epochs-uint64(max(s.sz.preload, 1))) * float64(len(s.names)),
		queries:   float64(len(s.rtt) + len(m.reader.mem)),
		tenants:   len(s.names) > 1,
		daemonCPU: daemonCPU,
	}
	for i := range m.reader.disk {
		rep.work.diskDepth += float64(s.disk[i%len(s.disk)].epoch)
	}
	return nil
}

// maxRefMinutes bounds how much of the stream the reference check
// replays in-process: six generated hours, ~4M usvc records.
const maxRefMinutes = 360

// check compares the daemon's answers with the in-process reference:
// STATS record counts, then QUERY results at three seeded epochs, byte
// for byte, for the largest tenant (and the smallest, when there are
// several).
func (s *state) check(rep *report, seed int64) error {
	watched := []int{0}
	if len(s.names) > 1 {
		watched = append(watched, len(s.names)-1)
	}
	rng := rand.New(rand.NewSource(seed))
	var scratch []flowlog.Record
	for _, i := range watched {
		if s.names[i] != "" {
			if err := s.a.Tenant(s.names[i]); err != nil {
				return err
			}
		}
		st, err := s.a.Stats()
		if err != nil {
			return err
		}
		if st.Records != s.sent[i] {
			s.o.fail("%s: STATS counts %d records, %d were acked", s.tenantOf(i), st.Records, s.sent[i])
		} else {
			s.o.ok(1)
		}

		// Runner state at an epoch depends only on the windows up to it, so
		// the reference replays no further than the newest epoch drawn —
		// and epochs are drawn from the first maxRefMinutes of the stream,
		// which bounds the replay on the saturating workload.
		perWindow := int(s.sz.window / time.Minute)
		limit := min(int(s.epochs), maxRefMinutes/perWindow)
		var epochs [3]uint64
		for k := range epochs {
			epochs[k] = 1 + uint64(rng.Intn(limit))
		}
		top := int(max(epochs[0], epochs[1], epochs[2]))
		ref := newReference(s.sz.window, s.sz.refSkip)
		for m := 0; m < top*perWindow; m++ {
			scratch = s.src.minute(scratch[:0], m, i+1)
			ref.add(scratch)
		}
		ref.finish()
		if int(ref.epoch) != top {
			return fmt.Errorf("reference built %d windows from %d minutes, expected %d", ref.epoch, top*perWindow, top)
		}
		for _, epoch := range epochs {
			for _, name := range ref.plane.Runners() {
				_, want, err := ref.plane.Query(name, epoch)
				if err != nil {
					return fmt.Errorf("reference %s@%d: %w", name, epoch, err)
				}
				got, err := s.a.Query(name, epoch)
				switch {
				case err != nil:
					s.o.fail("%s: QUERY %s %d: %v", s.tenantOf(i), name, epoch, err)
				case !bytes.Equal(got.Result, want):
					s.o.fail("%s: QUERY %s %d differs from the in-process reference", s.tenantOf(i), name, epoch)
				default:
					s.o.ok(1)
				}
			}
		}
	}
	return nil
}
