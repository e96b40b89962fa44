package store

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzDecodeEntry feeds decodeEntry damaged copies of real entries: an
// encodeEntry output with one byte overwritten, or truncated. It must never
// panic. An untouched entry must decode; a damaged one may be rejected, but
// whatever is accepted must return exactly the key and payload that were
// encoded — damage may turn a hit into a miss, never into other bytes.
func FuzzDecodeEntry(f *testing.F) {
	key := "wg-job v2 bench=hotspot sched=TwoLevel gate=None adaptive=false idle=5 bet=14 wake=3 sms=2 clusters=2 maxhold=0 auxbo=false seed=24301 scale=0.1 relaxed=0 sample=0/0"
	f.Add(key, []byte(`{"version":1,"report":{}}`), uint(0), byte(0), false)
	f.Add(key, []byte("two\n\nparagraphs"), uint(len(entryMagic)+3), byte('x'), false)
	f.Add(key, []byte("payload"), uint(40), byte(0), true)
	f.Add("", []byte{}, uint(7), byte('\n'), false)
	f.Fuzz(func(t *testing.T, key string, payload []byte, pos uint, val byte, truncate bool) {
		enc := encodeEntry(key, payload)
		raw := bytes.Clone(enc)
		if truncate {
			raw = raw[:pos%uint(len(raw)+1)]
		} else {
			raw[pos%uint(len(raw))] = val
		}
		gotKey, gotPayload, err := decodeEntry(raw, key)
		if err != nil {
			if bytes.Equal(raw, enc) && !strings.Contains(key, "\n") {
				t.Fatalf("untouched entry rejected: %v", err)
			}
		} else if gotKey != key || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("damaged entry accepted as key %q payload %q, encoded key %q payload %q",
				gotKey, gotPayload, key, payload)
		}
		// The Verify path pins no key, so a damaged key line may pass here;
		// the payload must still be exactly what was encoded.
		if _, gotPayload, err := decodeEntry(raw, ""); err == nil && !bytes.Equal(gotPayload, payload) {
			t.Fatalf("damaged entry accepted with payload %q, encoded %q", gotPayload, payload)
		}
	})
}
