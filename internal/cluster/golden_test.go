package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"net/netip"
	"testing"
	"time"

	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/nicsim"
)

// goldenIntervals spans more than two idle timeouts (4 min), so every
// digest covers flows that are evicted and ephemeral ports that come back.
const goldenIntervals = 12

// streamDigest runs c for goldenIntervals one-minute intervals from t0 and
// returns the SHA-256 of the AppendBinary stream and its record count.
func streamDigest(t *testing.T, c *Cluster) (string, int) {
	t.Helper()
	h := sha256.New()
	var buf []byte
	n, err := c.Run(t0, goldenIntervals, nicsim.CollectorFunc(func(batch []flowlog.Record) error {
		buf = buf[:0]
		for _, r := range batch {
			buf = flowlog.AppendBinary(buf, r)
		}
		h.Write(buf)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil)), n
}

// TestPresetStreamGolden pins the exact bytes each preset emits, not just
// their repeatability (TestDeterministicReplay): a rewrite of the NIC flow
// table, the host agent or the generator that reorders, drops or re-counts
// a single record, or draws the RNG differently, changes a digest. The
// digests were recorded before the flow table was rebuilt around dense
// slots and are never to be regenerated to make a change pass.
func TestPresetStreamGolden(t *testing.T) {
	at := t0.Add(3 * time.Minute)
	c2 := netip.MustParseAddr("203.0.113.66")
	for _, tc := range []struct {
		name   string
		preset string
		scale  float64
		attack Attack
		recs   int
		digest string
	}{
		{name: "portal", preset: "portal", scale: 0.1,
			recs: 1377, digest: "a785c1b01b6e7b66c892a2a924eedb9c23053253468505c171b62046bc7c18f2"},
		{name: "microservicebench", preset: "microservicebench", scale: 0.1,
			recs: 55735, digest: "a79d014d80bee87d67f5443c0dd005ef7d3a3af1004657017759ebc8d59b8f05"},
		{name: "k8spaas", preset: "k8spaas", scale: 0.1,
			recs: 72274, digest: "1c19e8cad53850413a5042e5b2d01c31d2b2b2fcddc97e5b19fa126873d24220"},
		{name: "kquery", preset: "kquery", scale: 0.02,
			recs: 11537, digest: "79584bb8a130268dd704fe2e73c995a887e541a4c43d2575795f5483e033c78d"},
		{name: "port-scan", preset: "microservicebench", scale: 0.1,
			attack: PortScan{AttackerRole: "frontend", TargetRole: "redis", PortsPerMin: 40, Start: at, Duration: 5 * time.Minute},
			recs:   56519, digest: "e700e5344304d4e25a70472bd9a7dfb6440ed812e4655a139c790ae4c14a18fd"},
		{name: "lateral-movement", preset: "microservicebench", scale: 0.1,
			attack: LateralMovement{AttackerRole: "loadgen", TargetRole: "redis", FlowsPerMin: 8, Bytes: 16_384, Start: at, Duration: 5 * time.Minute},
			recs:   55798, digest: "45239c100e49fd86fc0db290a5f7e8d52e89d645c083b57970e273dac2b59756"},
		{name: "exfiltration", preset: "microservicebench", scale: 0.1,
			attack: Exfiltration{SourceRole: "payment", Destination: c2, BytesPerMin: 200_000_000, Start: at, Duration: 5 * time.Minute},
			recs:   55740, digest: "a6abf949847a95f81f07e73d71a99c572abeb9e78b0a4d24167b2694ab13c151"},
		{name: "c2-beacon", preset: "microservicebench", scale: 0.1,
			attack: Beacon{SourceRole: "currency", C2: c2, Period: 2 * time.Minute, Bytes: 512, Start: at, Duration: 6 * time.Minute},
			recs:   55738, digest: "5f00ff27f6aa336780147fe7b509f32bd24aff67a3cc96f9b8b627ad28126880"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := Preset(tc.preset, tc.scale)
			if err != nil {
				t.Fatal(err)
			}
			c := mustCluster(t, spec)
			if tc.attack != nil {
				c.AddAttack(tc.attack)
			}
			digest, n := streamDigest(t, c)
			if n != tc.recs || digest != tc.digest {
				t.Errorf("stream = %d records, sha256 %s; want %d records, sha256 %s", n, digest, tc.recs, tc.digest)
			}
		})
	}
}
