package dnswire

import (
	"bytes"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dnsname"
)

func sampleMessage() *Message {
	return &Message{
		Header: Header{
			ID: 0x1234, Response: true, Authoritative: true,
			RecursionDesired: true, RCode: RCodeNoError,
		},
		Questions: []Question{
			{Name: "www.example.com", Type: TypeA, Class: ClassIN},
		},
		Answers: []Record{
			{Name: "www.example.com", Type: TypeA, Class: ClassIN, TTL: 300,
				Addr: netip.MustParseAddr("192.0.2.1")},
			{Name: "www.example.com", Type: TypeAAAA, Class: ClassIN, TTL: 300,
				Addr: netip.MustParseAddr("2001:db8::1")},
		},
		Authority: []Record{
			{Name: "example.com", Type: TypeNS, Class: ClassIN, TTL: 3600,
				Target: "ns1.example.com"},
			{Name: "example.com", Type: TypeSOA, Class: ClassIN, TTL: 3600,
				SOA: SOAData{MName: "ns1.example.com", RName: "hostmaster.example.com",
					Serial: 7, Refresh: 1, Retry: 2, Expire: 3, Minimum: 4}},
		},
		Additional: []Record{
			{Name: "ns1.example.com", Type: TypeA, Class: ClassIN, TTL: 300,
				Addr: netip.MustParseAddr("192.0.2.53")},
			{Name: "example.com", Type: TypeTXT, Class: ClassIN, TTL: 60,
				Text: []string{"v=spf1 -all", "second string"}},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	m := sampleMessage()
	wire, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	back, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, m)
	}
}

func TestCompressionShrinksOutput(t *testing.T) {
	m := sampleMessage()
	wire, _ := Encode(m)
	// Conservative upper bound if no compression were applied: every name
	// written in full.
	uncompressed := 12
	for _, q := range m.Questions {
		uncompressed += len(q.Name) + 2 + 4
	}
	if len(wire) >= 400 {
		t.Fatalf("message suspiciously large (%d bytes); compression broken?", len(wire))
	}
	// The suffix "example.com" appears 8+ times; ensure it is encoded at
	// most twice in raw form.
	if n := bytes.Count(wire, []byte("\x07example\x03com")); n > 1 {
		t.Errorf("example.com appears uncompressed %d times", n)
	}
	_ = uncompressed
}

func TestDecodeRejectsPointerLoops(t *testing.T) {
	// Header + a question whose name is a pointer to itself.
	wire := []byte{
		0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
		0xC0, 12, // pointer to offset 12 (itself)
		0, 1, 0, 1,
	}
	if _, err := Decode(wire); err == nil {
		t.Fatal("self-pointing name should fail")
	}
}

func TestDecodeRejectsForwardPointer(t *testing.T) {
	wire := []byte{
		0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
		0xC0, 14, // forward pointer
		0, 1, 0, 1,
	}
	if _, err := Decode(wire); err == nil {
		t.Fatal("forward pointer should fail")
	}
}

func TestDecodeTruncatedInputs(t *testing.T) {
	m := sampleMessage()
	wire, _ := Encode(m)
	for cut := 1; cut < len(wire); cut += 7 {
		if _, err := Decode(wire[:cut]); err == nil {
			// Some prefixes decode if counts are satisfied early; the
			// only requirement is no panic and no false success for a
			// header-only slice.
			if cut < 12 {
				t.Fatalf("cut %d: short header decoded", cut)
			}
		}
	}
}

func TestDecodeCountOverflow(t *testing.T) {
	// Claims 65535 answers in a 20-byte message.
	wire := []byte{
		0, 1, 0, 0, 0, 0, 0xFF, 0xFF, 0, 0, 0, 0,
		0, 1, 2, 3, 4, 5, 6, 7,
	}
	if _, err := Decode(wire); err == nil {
		t.Fatal("impossible record count should fail")
	}
}

func TestEncodeUDPTruncates(t *testing.T) {
	m := &Message{
		Header:    Header{ID: 9, Response: true},
		Questions: []Question{{Name: "big.example.com", Type: TypeTXT, Class: ClassIN}},
	}
	for i := 0; i < 30; i++ {
		m.Answers = append(m.Answers, Record{
			Name: "big.example.com", Type: TypeTXT, Class: ClassIN, TTL: 60,
			Text: []string{strings.Repeat("x", 100)},
		})
	}
	wire, err := EncodeUDP(m)
	if err != nil {
		t.Fatalf("EncodeUDP: %v", err)
	}
	if len(wire) > 512 {
		t.Fatalf("EncodeUDP produced %d bytes", len(wire))
	}
	back, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode truncated: %v", err)
	}
	if !back.Header.Truncated || len(back.Answers) != 0 {
		t.Fatal("TC bit not set or answers kept")
	}
}

func TestUnknownRRTypeSkipped(t *testing.T) {
	// Build a record with unknown type 99 by hand: decode must keep the
	// envelope and skip RDATA.
	var e []byte
	e = append(e, 0, 1, 0x80, 0, 0, 0, 0, 1, 0, 0, 0, 0) // header: response, 1 answer
	e = append(e, 3, 'f', 'o', 'o', 0)                   // name foo.
	e = append(e, 0, 99, 0, 1, 0, 0, 0, 60, 0, 4, 1, 2, 3, 4)
	m, err := Decode(e)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(m.Answers) != 1 || m.Answers[0].Type != Type(99) {
		t.Fatalf("unknown RR not preserved: %+v", m.Answers)
	}
}

func TestTypeAndRCodeStrings(t *testing.T) {
	if TypeA.String() != "A" || TypeNS.String() != "NS" || Type(99).String() != "TYPE99" {
		t.Error("Type.String broken")
	}
	if RCodeNXDomain.String() != "NXDOMAIN" || RCode(9).String() != "RCODE9" {
		t.Error("RCode.String broken")
	}
}

func TestRecordString(t *testing.T) {
	r := Record{Name: "example.com", Type: TypeNS, TTL: 60, Target: "ns1.example.com"}
	if got := r.String(); !strings.Contains(got, "NS ns1.example.com.") {
		t.Errorf("Record.String = %q", got)
	}
}

// TestFuzzDecodeNoPanic throws random bytes at the decoder.
func TestFuzzDecodeNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		buf := make([]byte, rng.Intn(100))
		rng.Read(buf)
		_, _ = Decode(buf) // must not panic
	}
}

// TestFuzzRoundTripMutations decodes mutated valid messages.
func TestFuzzRoundTripMutations(t *testing.T) {
	wire, _ := Encode(sampleMessage())
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 5000; i++ {
		mut := append([]byte(nil), wire...)
		for j := 0; j < 3; j++ {
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		}
		_, _ = Decode(mut) // must not panic
	}
}

func TestNameEncodingTooLongLabel(t *testing.T) {
	long := dnsname.Name(strings.Repeat("a", 70) + ".com")
	m := &Message{Questions: []Question{{Name: long, Type: TypeA, Class: ClassIN}}}
	if _, err := Encode(m); err == nil {
		t.Fatal("over-long label should fail to encode")
	}
}

// FuzzDecode feeds the decoder untrusted bytes, as a DNS server reads
// them off UDP and TCP. It must never panic, and any message it decodes
// that Encode accepts must survive another round trip unchanged.
func FuzzDecode(f *testing.F) {
	m := sampleMessage()
	wire, _ := Encode(m)
	f.Add(wire)
	m.AddOPT(1232)
	wire, _ = Encode(m)
	f.Add(wire)
	big := &Message{Header: Header{ID: 9, Response: true},
		Questions: []Question{{Name: "big.example.com", Type: TypeTXT, Class: ClassIN}}}
	for i := 0; i < 30; i++ {
		big.Answers = append(big.Answers, Record{Name: "big.example.com", Type: TypeTXT,
			Class: ClassIN, TTL: 60, Text: []string{strings.Repeat("x", 100)}})
	}
	wire, _ = EncodeUDP(big)
	f.Add(wire)
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 12, 0, 1, 0, 1})         // pointer loop
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 14, 0, 1, 0, 1})         // forward pointer
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0xFF, 0xFF, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7}) // impossible count
	f.Add([]byte{0, 1, 0x80, 0, 0, 0, 0, 1, 0, 0, 0, 0, 3, 'f', 'o', 'o', 0,
		0, 99, 0, 1, 0, 0, 0, 60, 0, 4, 1, 2, 3, 4}) // unknown RR type
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := Decode(in)
		if err != nil {
			return
		}
		wire, err := Encode(m)
		if err != nil {
			return
		}
		back, err := Decode(wire)
		if err != nil {
			t.Fatalf("re-decoding the encoding of a decoded message: %v\nmessage %+v", err, m)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("round trip changed the message:\n got %+v\nwant %+v", back, m)
		}
	})
}
