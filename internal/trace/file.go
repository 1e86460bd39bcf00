// Trace capture and inspection: a compact binary file format so generated
// streams can be dumped once and read back byte-identically (to archive
// the exact inputs behind a result, or to inspect them with mcrtrace).
//
// Format: a 16-byte header ("MCRTRACE", version uint16, record count
// uint32, reserved uint16) followed by varint-packed records: gap (uvarint),
// kind (1 byte), line delta from the previous line (signed varint). Line
// deltas compress well because streams walk rows sequentially.

package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
)

// magic identifies trace files.
var magic = [8]byte{'M', 'C', 'R', 'T', 'R', 'A', 'C', 'E'}

// fileVersion is the current format revision.
const fileVersion = 1

// ErrBadTrace reports a malformed trace file.
var ErrBadTrace = errors.New("trace: malformed trace file")

// WriteAll drains a generator into w and returns the number of records
// written.
func WriteAll(w io.Writer, g *Generator) (int, error) {
	var recs []Record
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		recs = append(recs, r)
	}
	return len(recs), WriteRecords(w, recs)
}

// WriteRecords serializes records to w.
func WriteRecords(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	var hdr [16]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint16(hdr[8:10], fileVersion)
	if len(recs) > 1<<31 {
		return fmt.Errorf("trace: %d records exceed the format limit", len(recs))
	}
	binary.LittleEndian.PutUint32(hdr[10:14], uint32(len(recs)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	prev := int64(0)
	for i, r := range recs {
		if r.Gap < 0 || r.Gap > math.MaxInt32 {
			return fmt.Errorf("trace: record %d gap %d is outside [0, %d]", i, r.Gap, math.MaxInt32)
		}
		n := binary.PutUvarint(buf[:], uint64(r.Gap))
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(r.Kind)); err != nil {
			return err
		}
		n = binary.PutVarint(buf[:], r.Line-prev)
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		prev = r.Line
	}
	return bw.Flush()
}

// ReadRecords parses a trace file. A malformed or hostile file — a record
// count its bytes cannot hold, a gap above math.MaxInt32 — is an error
// wrapping ErrBadTrace.
func ReadRecords(r io.Reader) ([]Record, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadTrace, err)
	}
	if [8]byte(hdr[:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadTrace)
	}
	if v := binary.LittleEndian.Uint16(hdr[8:10]); v != fileVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, v)
	}
	count := binary.LittleEndian.Uint32(hdr[10:14])
	// The header's count is a claim, not a size: preallocate at most what a
	// few hundred kilobytes of input could hold and grow from there.
	recs := make([]Record, 0, min(count, 1<<16))
	prev := int64(0)
	for i := uint32(0); i < count; i++ {
		gap, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d gap: %v", ErrBadTrace, i, err)
		}
		if gap > math.MaxInt32 {
			return nil, fmt.Errorf("%w: record %d gap %d exceeds %d", ErrBadTrace, i, gap, math.MaxInt32)
		}
		kindB, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: record %d kind: %v", ErrBadTrace, i, err)
		}
		if kindB > 1 {
			return nil, fmt.Errorf("%w: record %d has kind %d", ErrBadTrace, i, kindB)
		}
		delta, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d line: %v", ErrBadTrace, i, err)
		}
		prev += delta
		recs = append(recs, Record{Gap: int(gap), Kind: core.OpKind(kindB), Line: prev})
	}
	return recs, nil
}
