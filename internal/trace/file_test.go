package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	w, _ := ByName("comm3")
	g, err := New(w, 5, 40_000, 100)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := WriteAll(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no records written")
	}
	got, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("read %d records, wrote %d", len(got), n)
	}
	// Byte-identical to a fresh generation.
	fresh, _ := New(w, 5, 40_000, 100)
	for i := range got {
		want, ok := fresh.Next()
		if !ok {
			t.Fatalf("fresh stream ended early at %d", i)
		}
		if got[i] != want {
			t.Fatalf("record %d: %+v != %+v", i, got[i], want)
		}
	}
}

func TestReplayerMirrorsGenerator(t *testing.T) {
	w, _ := ByName("libq")
	g, _ := New(w, 9, 20_000, 0)
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, g); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplayer(recs)
	if rep.Len() != len(recs) {
		t.Fatal("length wrong")
	}
	count := 0
	for {
		if _, ok := rep.Next(); !ok {
			break
		}
		count++
	}
	if count != len(recs) {
		t.Fatalf("replayed %d of %d", count, len(recs))
	}
	rep.Reset()
	if _, ok := rep.Next(); !ok {
		t.Fatal("reset must rewind")
	}
}

// header returns a version-1 trace header claiming count records.
func header(count uint32) []byte {
	h := append([]byte("MCRTRACE"), 1, 0)
	h = binary.LittleEndian.AppendUint32(h, count)
	return append(h, 0, 0)
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		append([]byte("NOTMAGIC"), make([]byte, 8)...),
		// A count no input this short can hold: an error, not a
		// preallocation of 4 G records.
		header(math.MaxUint32),
		// Gaps beyond int32: 2^63 (once read back as a negative int) and
		// one past the limit.
		append(binary.AppendUvarint(header(1), 1<<63), 0, 0),
		append(binary.AppendUvarint(header(1), math.MaxInt32+1), 0, 0),
	}
	for i, c := range cases {
		if _, err := ReadRecords(bytes.NewReader(c)); !errors.Is(err, ErrBadTrace) {
			t.Errorf("case %d: want ErrBadTrace, got %v", i, err)
		}
	}
	// Bad version.
	var buf bytes.Buffer
	if err := WriteRecords(&buf, []Record{{Gap: 1, Line: 2}}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[8] = 99
	if _, err := ReadRecords(bytes.NewReader(b)); !errors.Is(err, ErrBadTrace) {
		t.Fatal("bad version must be rejected")
	}
	// Truncated body.
	buf.Reset()
	if err := WriteRecords(&buf, []Record{{Gap: 1, Line: 2}, {Gap: 3, Line: 4}}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-1]
	if _, err := ReadRecords(bytes.NewReader(trunc)); !errors.Is(err, ErrBadTrace) {
		t.Fatal("truncated body must be rejected")
	}
}

// TestGapLimits: the largest gap the reader accepts round-trips, and the
// writer refuses what the reader would reject.
func TestGapLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRecords(&buf, []Record{{Gap: math.MaxInt32, Line: -3}}); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadRecords(&buf); err != nil || len(got) != 1 || got[0].Gap != math.MaxInt32 {
		t.Fatalf("gap MaxInt32: got %+v, %v", got, err)
	}
	for _, gap := range []int{-1, math.MaxInt32 + 1} {
		if err := WriteRecords(io.Discard, []Record{{Gap: gap}}); err == nil {
			t.Errorf("gap %d must be refused", gap)
		}
	}
}

// FuzzReadRecords: any bytes read as a typed error or as records that
// re-read identically after WriteRecords.
func FuzzReadRecords(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteRecords(&buf, []Record{{Gap: 3, Line: 7}, {Gap: 0, Kind: 1, Line: 2}, {Gap: 1 << 20, Line: -5}}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(header(math.MaxUint32))
	f.Add(append(binary.AppendUvarint(header(1), 1<<63), 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadRecords(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		var out bytes.Buffer
		if err := WriteRecords(&out, recs); err != nil {
			t.Fatalf("records read from a file do not write back: %v", err)
		}
		again, err := ReadRecords(&out)
		if err != nil || !reflect.DeepEqual(again, recs) {
			t.Fatalf("re-read %d records (%v), want the %d read", len(again), err, len(recs))
		}
	})
}

func TestFileCompactness(t *testing.T) {
	w, _ := ByName("stream")
	g, _ := New(w, 2, 100_000, 0)
	var buf bytes.Buffer
	n, err := WriteAll(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	// Varint-delta packing should stay well under 16 bytes per record.
	if perRec := float64(buf.Len()) / float64(n); perRec > 10 {
		t.Fatalf("%.1f bytes per record; the delta encoding is not working", perRec)
	}
}
