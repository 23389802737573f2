package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"asap/internal/overlay"
)

// baselineLossGolden pins the SHA-256 of the JSON-encoded Summary of every
// baseline scheme on every topology of the tiny preset, on the reliable
// network and at 2% message loss. Under loss every heap pop order, RNG
// draw and (key, seq) fault-plane number decides which copies drop, so
// these digests catch any hot-path rewrite that reorders work — the
// zero-loss pins alone cannot see a shifted drop stream.
var baselineLossGolden = map[string]string{
	"flooding/random/loss=0":         "9cf20b7a138a4109b41cae1a66e6b8d3a2d4d1d7120151ffa8a815d62c32a396",
	"flooding/powerlaw/loss=0":       "356f02ed213c1af5db5fc56d940ba4827d7cb39dbdfb75cda6ccc7fe7cb7d19e",
	"flooding/crawled/loss=0":        "8a669ee1908f7a73c3fdf133e94497013578ec472983c766cb688e0a01c12dfb",
	"random-walk/random/loss=0":      "bca296e67086289a12035c4ea21d4b1fadf3ec660c769a402319d550b2ac8c9f",
	"random-walk/powerlaw/loss=0":    "262756c03eb4dd16d786759b0e7d64bef51f936142482826d25d1779fe35df9e",
	"random-walk/crawled/loss=0":     "4129d86f1e9152e5abf46df7c07d2ef93ddeea6edb9540e5677e2a843d8a628f",
	"gsa/random/loss=0":              "cef757552c1bc292b80308a6313828be4f991d789f8605e37ea15aa77e6244f6",
	"gsa/powerlaw/loss=0":            "0020094d82c7b80b6a40d5a4f582eec128bf65bdc6945fa1b5261696a76ab6c0",
	"gsa/crawled/loss=0":             "48f20590a7e34342d839fbc73b86431e06abf011df4eaeadc62c680e2b32e3ea",
	"flooding/random/loss=0.02":      "0e7b281328f5ad59426987586de86d4c5cdaafadf51239df2ab3010e1a154978",
	"flooding/powerlaw/loss=0.02":    "f95a6867e88019dfe98dafe4c5f3003a17b63982bafdf3991c8e535a2a8b5430",
	"flooding/crawled/loss=0.02":     "15cb77be7ce3c61d17817ecc8e1b9acd0ff30c5b03596c27f729bc9d0523e27e",
	"random-walk/random/loss=0.02":   "9fa6069cf410c7f709013381138f213ebebdafd6dcc0461fae0a94d58842cd4c",
	"random-walk/powerlaw/loss=0.02": "8a2a6946c1abda000940258e98921e76bde4c771526d3f138ef1478e054ecf7f",
	"random-walk/crawled/loss=0.02":  "938eaf9eb9d4f7b42355e0addacab8cf52b3910bcc66e037884a9d42abce636c",
	"gsa/random/loss=0.02":           "35694ceef6dd43812f9a2293b07bfd23ee7e46637209162a5690e9956475a362",
	"gsa/powerlaw/loss=0.02":         "c0da27cd0a84936cdb0c3416c3f12ed87c16eca1a6d4497f7c5ad6b8b5eb5af4",
	"gsa/crawled/loss=0.02":          "6c2603bedebc4a0f7f6d90f34756466b106d51cf910ab7cd85090f4c61d67060",
}

// TestBaselineLossGolden replays flooding, random-walk and gsa on the
// three tiny topologies at loss 0 and 0.02 and compares each Summary's
// digest with its pin.
func TestBaselineLossGolden(t *testing.T) {
	for _, loss := range []float64{0, 0.02} {
		sc := ScaleTiny()
		sc.LossRate = loss
		lab, err := NewLab(sc)
		if err != nil {
			t.Fatalf("lab: %v", err)
		}
		for _, scheme := range []string{"flooding", "random-walk", "gsa"} {
			for _, kind := range overlay.Kinds {
				key := fmt.Sprintf("%s/%s/loss=%g", scheme, kind, loss)
				sum, err := lab.run(scheme, kind, false, 1, nil, nil, nil)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				raw, err := json.Marshal(sum)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if loss > 0 && sum.Drops == 0 {
					t.Errorf("%s: lossy replay dropped nothing", key)
				}
				d := sha256.Sum256(raw)
				if got, want := hex.EncodeToString(d[:]), baselineLossGolden[key]; got != want {
					t.Errorf("%s: summary digest %s, pinned %s\nsummary: %s", key, got, want, raw)
				}
			}
		}
	}
}
