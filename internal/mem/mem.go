// Package mem provides the simulated physical memory: a sparse store of
// 16-byte lines addressed by physical line address. It is purely
// functional (no timing); latency is charged by the components that access
// it (the L3 home shards model DRAM latency).
package mem

import (
	"encoding/binary"
	"fmt"

	"duet/internal/params"
)

// LineBytes is the cache line size in bytes.
const LineBytes = params.LineBytes

// Line is the contents of one cache line.
type Line [LineBytes]byte

// LineAddr returns the line-aligned address containing addr.
func LineAddr(addr uint64) uint64 { return addr &^ uint64(LineBytes-1) }

// Offset returns the byte offset of addr within its line.
func Offset(addr uint64) int { return int(addr & uint64(LineBytes-1)) }

// Memory is a sparse physical memory. Unwritten lines read as zero.
type Memory struct {
	lines map[uint64]Line
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{lines: make(map[uint64]Line)}
}

// ReadLine returns the contents of the line containing addr.
func (m *Memory) ReadLine(addr uint64) Line {
	return m.lines[LineAddr(addr)]
}

// WriteLine replaces the line containing addr.
func (m *Memory) WriteLine(addr uint64, data Line) {
	m.lines[LineAddr(addr)] = data
}

// Read copies size bytes starting at addr. It panics if the access crosses
// a line boundary: the simulated hardware issues only naturally-aligned
// accesses, so a crossing is a model bug.
func (m *Memory) Read(addr uint64, size int) []byte {
	checkAligned(addr, size)
	line := m.ReadLine(addr)
	off := Offset(addr)
	out := make([]byte, size)
	copy(out, line[off:off+size])
	return out
}

// Write stores data at addr (len(data) bytes, line-contained).
func (m *Memory) Write(addr uint64, data []byte) {
	checkAligned(addr, len(data))
	line := m.ReadLine(addr)
	copy(line[Offset(addr):], data)
	m.WriteLine(addr, line)
}

// Write64 stores a little-endian uint64 at an 8-byte-aligned address.
func (m *Memory) Write64(addr uint64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.Write(addr, b[:])
}

// Write32 stores a little-endian uint32 at a 4-byte-aligned address.
func (m *Memory) Write32(addr uint64, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.Write(addr, b[:])
}

func checkAligned(addr uint64, size int) {
	if size <= 0 || size > LineBytes {
		panic(fmt.Sprintf("mem: bad access size %d", size))
	}
	if LineAddr(addr) != LineAddr(addr+uint64(size)-1) {
		panic(fmt.Sprintf("mem: access %#x+%d crosses a line boundary", addr, size))
	}
	if addr%uint64(size) != 0 && size == 8 || size == 4 && addr%4 != 0 {
		panic(fmt.Sprintf("mem: misaligned %d-byte access at %#x", size, addr))
	}
}
