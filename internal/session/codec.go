package session

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/attr"
	"repro/internal/epoch"
	"repro/internal/metric"
)

// Binary wire format (little endian), one fixed-width record per session:
//
//	offset size field
//	0      8    ID
//	8      4    Epoch (int32)
//	12     28   Attrs (7 × int32)
//	40     1    flags (bit 0: JoinFailed)
//	41     8    JoinTimeMS (float64)
//	49     8    BufRatio (float64)
//	57     8    BitrateKbps (float64)
//	65     8    DurationS (float64)
//	73     16   EventIDs (4 × int32)
//
// Total 89 bytes. The format is versioned by the trace container (see
// package trace), not per record.
const binarySize = 89

// AppendBinary appends the binary encoding of s to dst and returns the
// extended slice.
func AppendBinary(dst []byte, s *Session) []byte {
	var buf [binarySize]byte
	binary.LittleEndian.PutUint64(buf[0:], s.ID)
	binary.LittleEndian.PutUint32(buf[8:], uint32(s.Epoch))
	for i := 0; i < attr.NumDims; i++ {
		binary.LittleEndian.PutUint32(buf[12+4*i:], uint32(s.Attrs[i]))
	}
	if s.QoE.JoinFailed {
		buf[40] = 1
	}
	binary.LittleEndian.PutUint64(buf[41:], math.Float64bits(s.QoE.JoinTimeMS))
	binary.LittleEndian.PutUint64(buf[49:], math.Float64bits(s.QoE.BufRatio))
	binary.LittleEndian.PutUint64(buf[57:], math.Float64bits(s.QoE.BitrateKbps))
	binary.LittleEndian.PutUint64(buf[65:], math.Float64bits(s.QoE.DurationS))
	for i := 0; i < metric.NumMetrics; i++ {
		binary.LittleEndian.PutUint32(buf[73+4*i:], uint32(s.EventIDs[i]))
	}
	return append(dst, buf[:]...)
}

// DecodeBinary decodes one record from b into s. It returns the number of
// bytes consumed.
func DecodeBinary(b []byte, s *Session) (int, error) {
	if len(b) < binarySize {
		return 0, fmt.Errorf("session: short record: %d bytes, need %d", len(b), binarySize)
	}
	s.ID = binary.LittleEndian.Uint64(b[0:])
	s.Epoch = epoch.Index(int32(binary.LittleEndian.Uint32(b[8:])))
	for i := 0; i < attr.NumDims; i++ {
		s.Attrs[i] = int32(binary.LittleEndian.Uint32(b[12+4*i:]))
	}
	if b[40]&^1 != 0 {
		return 0, fmt.Errorf("session: unknown flags %#x", b[40])
	}
	s.QoE = metric.QoE{
		JoinFailed:  b[40]&1 != 0,
		JoinTimeMS:  math.Float64frombits(binary.LittleEndian.Uint64(b[41:])),
		BufRatio:    math.Float64frombits(binary.LittleEndian.Uint64(b[49:])),
		BitrateKbps: math.Float64frombits(binary.LittleEndian.Uint64(b[57:])),
		DurationS:   math.Float64frombits(binary.LittleEndian.Uint64(b[65:])),
	}
	for i := 0; i < metric.NumMetrics; i++ {
		s.EventIDs[i] = int32(binary.LittleEndian.Uint32(b[73+4*i:]))
	}
	return binarySize, nil
}

// BinarySize returns the fixed record width of the binary encoding.
func BinarySize() int { return binarySize }
