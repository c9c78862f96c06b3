package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

// buildSegment frames payload into a complete segment byte stream.
func buildSegment(t testing.TB, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := writeSegment(&buf, func(w io.Writer) error {
		_, werr := w.Write(payload)
		return werr
	})
	if err != nil {
		t.Fatalf("writeSegment: %v", err)
	}
	return buf.Bytes()
}

func TestSegmentRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		[]byte("x"),
		[]byte("hello segment"),
		bytes.Repeat([]byte("abc123\n"), 20000), // spans multiple blocks
	}
	for _, p := range payloads {
		enc := buildSegment(t, p)
		got, err := decodeSegment(bytes.NewReader(enc), int64(len(enc)))
		if err != nil {
			t.Fatalf("decode(%d bytes): %v", len(p), err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("payload mismatch for %d bytes", len(p))
		}
		// The buffer comes from the size the caller allows, block count or no.
		if cap(got) > len(enc) {
			t.Fatalf("%d-byte payload buffer for a %d-byte segment", cap(got), len(enc))
		}
	}
}

func TestDecodeSegmentRejectsDefects(t *testing.T) {
	enc := buildSegment(t, []byte("some payload worth protecting"))
	// A case is a stream and the segment size the caller allows it: the
	// stream's own length unless the case says less.
	type defect struct {
		name  string
		data  []byte
		under int64
	}
	cases := []defect{
		{name: "empty"},
		{name: "bad-magic", data: []byte("notaseg 1\nxxxxxxx")},
		{name: "magic-only", data: []byte(segMagic)},
		{name: "truncated-header", data: enc[:len(segMagic)+3]},
		{name: "truncated-data", data: enc[:len(segMagic)+10]},
		{name: "missing-trailer", data: enc[:len(enc)-8]},
		{name: "partial-trailer", data: enc[:len(enc)-3]},
		{name: "trailing-garbage", data: append(append([]byte(nil), enc...), 0)},
		// A sound segment, but one byte more payload than a file of the
		// size the caller allows could frame.
		{name: "payload-over-allowed-size", data: enc, under: 1},
	}
	flip := func(at int) []byte {
		out := append([]byte(nil), enc...)
		out[at] ^= 0x01
		return out
	}
	cases = append(cases,
		defect{name: "flipped-data", data: flip(len(segMagic) + 8)},
		defect{name: "flipped-block-crc", data: flip(len(segMagic) + 5)},
		defect{name: "flipped-trailer-crc", data: flip(len(enc) - 1)},
	)
	// An oversized length prefix must be rejected before allocation.
	huge := []byte(segMagic)
	huge = binary.BigEndian.AppendUint32(huge, maxBlockLen+1)
	huge = binary.BigEndian.AppendUint32(huge, 0)
	cases = append(cases, defect{name: "oversized-length", data: huge})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeSegment(bytes.NewReader(tc.data), int64(len(tc.data))-tc.under); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// FuzzDecodeSegment holds decodeSegment to its contract: arbitrary input
// either decodes (and then re-encodes to an equivalent segment) or fails
// with ErrCorrupt — never a panic, never an allocation beyond the size
// the caller allows (here the input's own length).
func FuzzDecodeSegment(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	valid := buildSegment(f, []byte("seed payload"))
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	mutated := append([]byte(nil), valid...)
	mutated[len(segMagic)+9] ^= 0xff
	f.Add(mutated)
	multi := buildSegment(f, bytes.Repeat([]byte{0xAB}, 3*blockSize+17))
	f.Add(multi[:len(multi)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := decodeSegment(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-corrupt error %v", err)
			}
			return
		}
		if cap(payload) > len(data) {
			t.Fatalf("%d-byte payload buffer for %d bytes of input", cap(payload), len(data))
		}
		// Accepted input must be a faithful framing: re-framing the payload
		// and decoding again yields the same bytes.
		enc := buildSegment(t, payload)
		again, err := decodeSegment(bytes.NewReader(enc), int64(len(enc)))
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("re-encode round trip failed: %v", err)
		}
		if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(data[len(data)-4:]) {
			t.Fatal("accepted segment whose trailer CRC does not cover its payload")
		}
		// What takes len(data) bytes does not fit in one fewer.
		if _, err := decodeSegment(bytes.NewReader(data), int64(len(data))-1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("segment accepted under a smaller size: %v", err)
		}
	})
}
