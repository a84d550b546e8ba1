package flowlog

import (
	"bytes"
	"io"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func mustAddr(t *testing.T, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatalf("ParseAddr(%q): %v", s, err)
	}
	return a
}

func sampleRecord(t *testing.T) Record {
	return Record{
		Time:        time.Unix(1700000000, 0).UTC(),
		LocalIP:     mustAddr(t, "10.0.1.4"),
		LocalPort:   443,
		RemoteIP:    mustAddr(t, "10.0.2.9"),
		RemotePort:  49152,
		PacketsSent: 120,
		PacketsRcvd: 80,
		BytesSent:   90000,
		BytesRcvd:   6400,
	}
}

// Generate lets testing/quick build arbitrary valid records.
func (Record) Generate(r *rand.Rand, _ int) reflect.Value {
	addr := func() netip.Addr {
		if r.Intn(4) == 0 {
			var b [16]byte
			r.Read(b[:])
			b[15] |= 1 // never the unspecified address (rejected on decode)
			return netip.AddrFrom16(b)
		}
		var b [4]byte
		r.Read(b[:])
		b[3] |= 1
		return netip.AddrFrom4(b)
	}
	rec := Record{
		Time:        time.Unix(r.Int63n(4e9), 0).UTC(),
		LocalIP:     addr(),
		LocalPort:   uint16(r.Intn(65536)),
		RemoteIP:    addr(),
		RemotePort:  uint16(r.Intn(65536)),
		PacketsSent: uint64(r.Int63()),
		PacketsRcvd: uint64(r.Int63()),
		BytesSent:   uint64(r.Int63()),
		BytesRcvd:   uint64(r.Int63()),
	}
	return reflect.ValueOf(rec)
}

func TestCSVRoundTrip(t *testing.T) {
	want := sampleRecord(t)
	got, err := ParseCSV(want.MarshalCSV())
	if err != nil {
		t.Fatalf("ParseCSV: %v", err)
	}
	if got != want {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestCSVRoundTripQuick(t *testing.T) {
	f := func(r Record) bool {
		got, err := ParseCSV(r.MarshalCSV())
		return err == nil && got == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBinaryRoundTripQuick(t *testing.T) {
	f := func(r Record) bool {
		got, err := DecodeBinary(AppendBinary(nil, r))
		return err == nil && got == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBinaryFrameSize(t *testing.T) {
	b := AppendBinary(nil, sampleRecord(t))
	if len(b) != WireSize {
		t.Errorf("frame size = %d, want WireSize = %d", len(b), WireSize)
	}
}

func TestParseCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"1,2,3",
		"x,10.0.0.1,1,10.0.0.2,2,1,1,1,1",
		"1,notanip,1,10.0.0.2,2,1,1,1,1",
		"1,10.0.0.1,99999,10.0.0.2,2,1,1,1,1",
		"1,10.0.0.1,1,alsobad,2,1,1,1,1",
		"1,10.0.0.1,1,10.0.0.2,2,x,1,1,1",
		"1,10.0.0.1,1,10.0.0.2,2,1,1,1,-5",
	}
	for _, c := range cases {
		if _, err := ParseCSV(c); err == nil {
			t.Errorf("ParseCSV(%q): want error, got nil", c)
		}
	}
}

func TestWriterReaderStream(t *testing.T) {
	var buf bytes.Buffer
	want := make([]Record, 0, 100)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		r := Record{}.Generate(rng, 0).Interface().(Record)
		want = append(want, r)
		buf.Write(AppendBinary(nil, r))
	}
	rd := NewReader(&buf)
	for i, wantRec := range want {
		got, err := rd.Read()
		if err != nil {
			t.Fatalf("Read %d: %v", i, err)
		}
		if got != wantRec {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got, wantRec)
		}
	}
	if _, err := rd.Read(); err != io.EOF {
		t.Errorf("after stream: err = %v, want io.EOF", err)
	}
}

func TestReaderTruncated(t *testing.T) {
	b := AppendBinary(nil, sampleRecord(t))
	rd := NewReader(bytes.NewReader(b[:WireSize-3]))
	if _, err := rd.Read(); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated read: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestValid(t *testing.T) {
	if (Record{}).Valid() {
		t.Error("zero record should be invalid")
	}
	if !sampleRecord(t).Valid() {
		t.Error("sample record should be valid")
	}
}

func TestProviderProfiles(t *testing.T) {
	ps := Providers()
	if len(ps) != 3 {
		t.Fatalf("Providers() len = %d, want 3", len(ps))
	}
	if Azure.AggInterval != time.Minute || AWS.AggInterval != time.Minute {
		t.Error("Azure/AWS aggregation interval should be 1 minute (Table 3)")
	}
	if GCP.AggInterval != 5*time.Second {
		t.Error("GCP aggregation interval should be 5s (Table 3)")
	}
	if GCP.PacketSample != 0.03 || GCP.FlowSample != 0.50 {
		t.Error("GCP should sample 3% of packets and 50% of flows (Table 3)")
	}
}

func TestSamplerUnsampledPassthrough(t *testing.T) {
	s := NewSampler(Azure, 1)
	r := sampleRecord(t)
	got, ok := s.Sample(r)
	if !ok || got != r {
		t.Errorf("Azure sampler should pass records through unchanged")
	}
}

func TestSamplerFlowFractionApprox(t *testing.T) {
	s := NewSampler(GCP, 42)
	rng := rand.New(rand.NewSource(99))
	kept := 0
	const n = 5000
	for i := 0; i < n; i++ {
		r := Record{}.Generate(rng, 0).Interface().(Record)
		if _, ok := s.Sample(r); ok {
			kept++
		}
	}
	frac := float64(kept) / n
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("GCP flow sampling kept %.3f of flows, want ~0.50", frac)
	}
}

func TestSamplerDeterministicPerFlow(t *testing.T) {
	s := NewSampler(GCP, 42)
	r := sampleRecord(t)
	_, first := s.Sample(r)
	for i := 0; i < 10; i++ {
		r.BytesSent += 1000 // same flow key, different counters
		if _, ok := s.Sample(r); ok != first {
			t.Fatal("sampling decision changed for the same flow key")
		}
	}
}

func TestSamplerPacketScalingQuantizes(t *testing.T) {
	s := NewSampler(Provider{Name: "x", PacketSample: 0.5, FlowSample: 1}, 1)
	r := sampleRecord(t)
	r.PacketsSent = 101
	got, ok := s.Sample(r)
	if !ok {
		t.Fatal("flow-unsampled provider dropped a record")
	}
	if got.PacketsSent != 100 {
		t.Errorf("PacketsSent = %d, want 100 (quantized to 1/rate)", got.PacketsSent)
	}
}

func TestCollectionCost(t *testing.T) {
	// 1e9/WireSize records is exactly a gigabyte: cost = PricePerGB.
	n := int(1e9) / WireSize
	got := Azure.CollectionCost(n)
	want := float64(n) * WireSize / 1e9 * 0.5
	if got != want {
		t.Errorf("CollectionCost = %v, want %v", got, want)
	}
}

func TestParseCSVIgnoresWhitespace(t *testing.T) {
	r := sampleRecord(t)
	got, err := ParseCSV("  " + r.MarshalCSV() + "\n")
	if err != nil || got != r {
		t.Errorf("ParseCSV with surrounding whitespace failed: %v", err)
	}
}

func TestCSVFieldOrderMatchesTable2(t *testing.T) {
	line := sampleRecord(t).MarshalCSV()
	fields := strings.Split(line, ",")
	if len(fields) != 9 {
		t.Fatalf("got %d fields, want 9", len(fields))
	}
	if fields[1] != "10.0.1.4" || fields[2] != "443" {
		t.Errorf("local endpoint fields out of order: %v", fields[1:3])
	}
	if fields[3] != "10.0.2.9" || fields[4] != "49152" {
		t.Errorf("remote endpoint fields out of order: %v", fields[3:5])
	}
}
