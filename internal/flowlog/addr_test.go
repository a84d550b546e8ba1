package flowlog

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"net/netip"
	"testing"
	"time"
)

// as16Words is AddrWords' reference: the two big-endian halves of As16.
func as16Words(ip netip.Addr) (hi, lo uint64) {
	a := ip.As16()
	return binary.BigEndian.Uint64(a[:8]), binary.BigEndian.Uint64(a[8:])
}

// TestAddrWordsMatchesAs16 pins AddrWords to As16 on each address form it
// branches on: the zero Addr, IPv4 at both ends of its range, 4-in-6,
// IPv6 and zoned IPv6.
func TestAddrWordsMatchesAs16(t *testing.T) {
	addrs := []netip.Addr{
		{},
		netip.MustParseAddr("0.0.0.0"),
		netip.MustParseAddr("255.255.255.255"),
		netip.MustParseAddr("10.0.0.1"),
		netip.MustParseAddr("::ffff:10.0.0.1"),
		netip.MustParseAddr("::ffff:0.0.0.0"),
		netip.MustParseAddr("::"),
		netip.MustParseAddr("2001:db8:85a3::8a2e:370:7334"),
		netip.MustParseAddr("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"),
		netip.MustParseAddr("fe80::1%eth0"),
	}
	for _, ip := range addrs {
		hi, lo := AddrWords(ip)
		wantHi, wantLo := as16Words(ip)
		if hi != wantHi || lo != wantLo {
			t.Errorf("AddrWords(%v) = %#016x %#016x, As16 words %#016x %#016x", ip, hi, lo, wantHi, wantLo)
		}
	}
}

// FuzzAddrWords compares AddrWords with As16 on arbitrary addresses: 16
// or more bytes make an IPv6 address (4-in-6 included) with the zone, 4
// to 15 bytes an IPv4 one, fewer the zero Addr.
func FuzzAddrWords(f *testing.F) {
	f.Add([]byte{}, "")
	f.Add([]byte{0, 0, 0, 0}, "")
	f.Add([]byte{255, 255, 255, 255}, "")
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 10, 0, 0, 1}, "")
	f.Add([]byte{0xfe, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, "eth0")
	f.Fuzz(func(t *testing.T, b []byte, zone string) {
		var ip netip.Addr
		switch {
		case len(b) >= 16:
			ip = netip.AddrFrom16([16]byte(b)).WithZone(zone)
		case len(b) >= 4:
			ip = netip.AddrFrom4([4]byte(b))
		}
		hi, lo := AddrWords(ip)
		if wantHi, wantLo := as16Words(ip); hi != wantHi || lo != wantLo {
			t.Fatalf("AddrWords(%v) = %#016x %#016x, As16 words %#016x %#016x", ip, hi, lo, wantHi, wantLo)
		}
	})
}

// TestAppendBinaryGolden pins the wire bytes of an IPv4, a 4-in-6, an IPv6
// and a zoned IPv6 frame. The fixture was written by the As16-based
// encoder; the zone never reaches the wire.
func TestAppendBinaryGolden(t *testing.T) {
	mk := func(a string, ap uint16, b string, bp uint16, k uint64) Record {
		return Record{
			Time:    time.Unix(1700000000+int64(k), 0).UTC(),
			LocalIP: netip.MustParseAddr(a), LocalPort: ap,
			RemoteIP: netip.MustParseAddr(b), RemotePort: bp,
			PacketsSent: 12 * k, PacketsRcvd: 8 * k, BytesSent: 4096 * k, BytesRcvd: 512 * k,
		}
	}
	for _, c := range []struct {
		rec  Record
		want string
	}{
		{mk("10.0.0.1", 443, "10.0.0.10", 51234, 1),
			"01f153650000000000000000000000000000ffff0a000001bb0100000000000000000000ffff0a00000a22c80c00000000000000080000000000000000100000000000000002000000000000"},
		{mk("::ffff:192.168.1.10", 3306, "0.0.0.1", 1, 2),
			"02f153650000000000000000000000000000ffffc0a8010aea0c00000000000000000000ffff0000000101001800000000000000100000000000000000200000000000000004000000000000"},
		{mk("2001:db8::1", 8443, "2001:db8:85a3::8a2e:370:7334", 60000, 3),
			"03f153650000000020010db8000000000000000000000001fb2020010db885a3000000008a2e0370733460ea2400000000000000180000000000000000300000000000000006000000000000"},
		{mk("fe80::1%eth0", 22, "255.255.255.255", 65535, 4),
			"04f1536500000000fe800000000000000000000000000001160000000000000000000000ffffffffffffffff3000000000000000200000000000000000400000000000000008000000000000"},
	} {
		want, err := hex.DecodeString(c.want)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendBinary(nil, c.rec); !bytes.Equal(got, want) {
			t.Errorf("AppendBinary(%v -> %v):\n got %x\nwant %x", c.rec.LocalIP, c.rec.RemoteIP, got, want)
		}
	}
}
