package flowlog

import (
	"encoding/binary"
	"net/netip"
	"time"
)

// AddrWords returns ip's 16-byte form as two big-endian words: hi and lo
// equal binary.BigEndian.Uint64 of ip.As16()'s halves, for every address
// including the zero Addr. It is the per-record way to read an address's
// bits. As16 stores its array as two 8-byte words and the caller copies it
// out with one 16-byte load, which cannot be forwarded from two stores and
// stalls until they reach the cache. An IPv4 address goes through As4
// instead, whose 4-byte array takes no such round trip (on amd64 it stays
// in a register); 4-in-6, IPv6, zoned and zero addresses keep As16.
func AddrWords(ip netip.Addr) (hi, lo uint64) {
	if ip.Is4() {
		a := ip.As4()
		return 0, 0xffff<<32 | uint64(binary.BigEndian.Uint32(a[:]))
	}
	a := ip.As16()
	return binary.BigEndian.Uint64(a[:8]), binary.BigEndian.Uint64(a[8:])
}

// addrFrom16 reconstructs an address from its 16-byte form, unmapping
// v4-mapped-v6 back to a plain IPv4 address so that round-tripped addresses
// compare equal to the originals.
func addrFrom16(b []byte) netip.Addr {
	var a16 [16]byte
	copy(a16[:], b)
	return netip.AddrFrom16(a16).Unmap()
}

// unixTime converts Unix seconds to a UTC time.Time.
func unixTime(sec int64) time.Time { return time.Unix(sec, 0).UTC() }
