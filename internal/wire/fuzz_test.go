package wire

import (
	"bytes"
	"errors"
	"testing"
)

// The decoders face bytes from the network, so they must never panic, and
// every message they accept must survive a re-encode: the re-encoded bytes
// decode again, and re-encoding that decode reproduces them exactly (the
// codec is bit-exact, so byte equality is message equality — including NaN
// payloads, which reflect.DeepEqual would call unequal). The committed seed
// corpus in testdata/fuzz holds the round-trip fixtures, a format-8 message
// and current-format directives carrying the retired op codes 2 and 3; plain
// `go test` replays it, `go test -fuzz=FuzzDecodeDirective` explores from it.

// checkHeaderProperties asserts the version-window contract on any input
// whose header parsed as far as the version byte: a message from outside
// [MinVersion, Version] is an ErrVersion, whatever follows.
func checkHeaderProperties(t *testing.T, b []byte, err error) {
	t.Helper()
	if len(b) >= headerSize && b[0] == magic0 && b[1] == magic1 &&
		(b[2] < MinVersion || b[2] > Version) && !errors.Is(err, ErrVersion) {
		t.Fatalf("version %d message: err %v, want ErrVersion", b[2], err)
	}
}

func FuzzDecodeDirective(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := DecodeDirective(b)
		checkHeaderProperties(t, b, err)
		if len(b) > headerSize && b[2] == Version && Kind(b[3]) == KindDirective &&
			(b[headerSize] == 2 || b[headerSize] == 3) && err == nil {
			t.Fatalf("retired op %d accepted: %+v", b[headerSize], d)
		}
		if err != nil {
			return
		}
		enc := EncodeDirective(nil, d)
		again, err := DecodeDirective(enc)
		if err != nil {
			t.Fatalf("re-encoded directive rejected: %v\n%+v", err, d)
		}
		if re := EncodeDirective(nil, again); !bytes.Equal(re, enc) {
			t.Fatalf("directive changed across a round trip:\n%+v\n%+v", d, again)
		}
	})
}

func FuzzDecodeReport(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		rep, err := DecodeReport(b)
		checkHeaderProperties(t, b, err)
		if err != nil {
			return
		}
		enc := EncodeReport(nil, rep)
		again, err := DecodeReport(enc)
		if err != nil {
			t.Fatalf("re-encoded report rejected: %v\n%+v", err, rep)
		}
		if re := EncodeReport(nil, again); !bytes.Equal(re, enc) {
			t.Fatalf("report changed across a round trip:\n%+v\n%+v", rep, again)
		}
	})
}
