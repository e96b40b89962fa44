package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"warpedgates/internal/config"
	"warpedgates/internal/sim"
)

// sampledGoldenRunner runs config.Small() at scale 0.2 with 200-cycle
// detailed windows every 800 cycles: short enough for a unit test, long
// enough that every pinned cell splices after the sampler's warm-up.
func sampledGoldenRunner() *Runner {
	base := config.Small()
	base.SampleDetailCycles = 200
	base.SamplePeriod = 800
	r := NewRunner(base)
	r.Scale = 0.2
	return r
}

// sampledFingerprint is FingerprintReport plus the sampling metadata at full
// precision.
func sampledFingerprint(r *sim.Report) string {
	return fmt.Sprintf("%s sampled=%t detail=%d skippedinstrs=%d skippedctas=%d errest=%s",
		FingerprintReport(r), r.Sampled, r.SampledDetailCycles,
		r.SampledSkippedInstrs, r.SampledSkippedCTAs, fmtFloat(r.SampleErrorEst))
}

// goldenSampled pins sampled runs counter by counter. The golden matrix
// covers full runs only; these lines catch any drift in the sampler's
// extrapolation, rounding or ratio arithmetic.
var goldenSampled = []struct {
	bench string
	tech  Technique
	want  string
}{
	{"hotspot", Baseline,
		"cycles=11124 ranout=false issued=16896 byclass=9614/4447/0/2835 stalls=35662/6532 ctas=8 warpmax=16 warpavg=4.361964980982877 l1miss=0.9590452782303271 l2=2695/1474/1474/504 int=19496,24513,44009,0,0,0,0,0,0,0,0,9614,h648:13413:1:981 fp=14262,29748,44009,0,0,0,0,0,0,0,0,4447,h594:15997:1:739 sfu=0,22005,22005,0,0,0,0,0,0,0,0,0,h2:11513:5705:5808 ldst=8826,13179,22005,0,0,0,0,0,0,0,0,2835,h577:7051:1:201 sampled=true detail=5808 skippedinstrs=8448 skippedctas=4 errest=0.12387443317293635"},
	{"hotspot", WarpedGates,
		"cycles=11264 ranout=false issued=16896 byclass=9613/4432/0/2851 stalls=20816/29245 ctas=8 warpmax=16 warpavg=4.858324872860693 l1miss=0.9595190219339909 l2=2723/1500/1500/597 int=17095,27919,24184,20830,11278,9552,807,804,0,319,2468,9613,h558:15354:1:455 fp=12621,32393,19156,25858,11683,14174,834,832,0,272,2008,4432,h509:17588:1:625 sfu=0,22507,10,22497,28,22469,2,0,0,0,0,0,h2:11910:5944:5966 ldst=8189,14318,17624,4883,3313,1569,1008,1004,917,5,0,2851,h497:7733:1:189 sampled=true detail=5966 skippedinstrs=8448 skippedctas=4 errest=0.07354460620941355"},
	{"bfs", ConvPG,
		"cycles=15065 ranout=false issued=4608 byclass=3172/134/0/1302 stalls=107087/103272 ctas=8 warpmax=16 warpavg=7.503114850275498 l1miss=0.9323241152293987 l2=4557/2357/2357/1180 int=6949,53174,12828,47295,8252,39043,687,686,149,17,0,3172,h309:26464:1:1658 fp=491,59632,1473,58649,1616,57033,120,116,5,0,0,134,h61:29632:1:5394 sfu=0,30061,10,30051,28,30023,2,0,0,0,0,0,h2:14934:7433:7501 ldst=7092,22970,24879,5183,2908,2274,2139,2135,2098,0,0,1302,h284:11499:1:226 sampled=true detail=7501 skippedinstrs=2304 skippedctas=4 errest=0.1614077281549144"},
	{"bfs", WarpedGates,
		"cycles=15243 ranout=false issued=4608 byclass=3166/132/0/1310 stalls=107203/104005 ctas=8 warpmax=16 warpavg=7.5782282113918376 l1miss=0.9253340189256658 l2=4601/2391/2391/1174 int=6948,53916,10599,50266,9876,40389,706,704,0,105,861,3166,h298:26598:1:1050 fp=458,60406,1068,59796,1727,58069,123,119,0,5,37,132,h56:29761:1:6131 sfu=0,30432,10,30422,28,30394,2,0,0,0,0,0,h2:14993:7470:7523 ldst=7171,23261,24803,5629,2984,2645,2122,2117,2072,2,0,1310,h285:11541:1:226 sampled=true detail=7523 skippedinstrs=2304 skippedctas=4 errest=0.13644085352864585"},
	{"sgemm", CoordBlackout,
		"cycles=12555 ranout=false issued=21504 byclass=4317/12254/0/4932 stalls=0/19276 ctas=8 warpmax=16 warpavg=3.491050388043444 l1miss=0.8612419127878181 l2=1796/654/654/61 int=9687,40401,18805,31283,17819,13463,1272,1266,0,551,4056,4317,h621:19029:1:318 fp=19202,30885,25849,24238,13629,10609,973,965,0,423,3225,12254,h534:14234:1:248 sfu=0,25044,10,25034,28,25006,2,0,0,0,0,0,h2:11824:5879:5945 ldst=10923,14121,17771,7273,4391,2883,690,686,538,17,0,4932,h516:6571:1:240 sampled=true detail=5945 skippedinstrs=10752 skippedctas=4 errest=0.16853176996700217"},
}

func TestGoldenSampledRuns(t *testing.T) {
	r := sampledGoldenRunner()
	for _, g := range goldenSampled {
		rep, err := r.Run(g.bench, g.tech)
		if err != nil {
			t.Fatal(err)
		}
		if rep.SampledSkippedCTAs == 0 {
			t.Errorf("%s/%s: no CTA spliced; the pin would cover a detailed run", g.bench, g.tech)
		}
		if got := sampledFingerprint(rep); got != g.want {
			t.Errorf("%s/%s drifted:\n  got:  %s\n  want: %s", g.bench, g.tech, got, g.want)
		}
	}
}

// TestGoldenEncodedReports pins the exact bytes sim.EncodeReport writes to
// the store for one full and one sampled run, field names and order included.
func TestGoldenEncodedReports(t *testing.T) {
	full := NewRunner(config.Small())
	full.Scale = 0.2
	for _, c := range []struct {
		name string
		r    *Runner
		want string
	}{
		{"full", full, "f51cace44381ada47540092393c34b8b3edb2ecef344d141f41cd3296964812e"},
		{"sampled", sampledGoldenRunner(), "4c06a4da8c7d0d54bb26034b17460e35a7abf28dd2c7d4989191ebbc132743ca"},
	} {
		rep, err := c.r.Run("hotspot", WarpedGates)
		if err != nil {
			t.Fatal(err)
		}
		data, err := sim.EncodeReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), `"BusyCycles":`) {
			t.Errorf("%s: encoded report lacks the domain counters", c.name)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s run: EncodeReport sha256 %s, want %s", c.name, got, c.want)
		}
	}
}
