package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/maf"
	"repro/internal/parwan"
)

// pinnedPlans holds the SHA-256 of WritePlan for each named configuration
// of generatedPlanConfigs, and "random-filters" for the digest over the
// seeded random filter masks.
var pinnedPlans = map[string]string{
	"addr-wire-0-compaction-false":  "fcb5a1bbfe6d5f2426f297721e073d700fc8e509996130636e06e0405923169a",
	"addr-wire-0-compaction-true":   "1d2cc6b87db5f8a3e3f843504f954d185b7ad8a0f85feb07b7c640e0f0a0b658",
	"addr-wire-1-compaction-false":  "6ec742ab66cb21885b276492f85a6f2efe5eb60b6f11ef9ee7c5fb4c46503b2f",
	"addr-wire-1-compaction-true":   "9f69e820704b3b41fab2a1c1c272a72e0e71108fc080119ecc275d4568458eca",
	"addr-wire-10-compaction-false": "1e4fb87c5d07a7485895473b15feb4e5e19e37d2a6ae6a7eee04d51945dd004e",
	"addr-wire-10-compaction-true":  "0df1a7f428dbd036b2d252331777d1f58fa7839491a3ad802c847c0f0e422e9b",
	"addr-wire-11-compaction-false": "03e0be57a07ea26a3484749ec7778ef239495966004fe6586313d52f716859d1",
	"addr-wire-11-compaction-true":  "8045e8573a0da97bba52a56e2da0fd61e910bfc2aa69181d36f132463493a521",
	"addr-wire-2-compaction-false":  "526aea712934a11b5badf66a6ee1c9f3929d2ab380b25ee162eaa671029e61cd",
	"addr-wire-2-compaction-true":   "fac4b61886dce10aa8589b5417a3e7a625b55e3850bc04581f0ffd0f49f67779",
	"addr-wire-3-compaction-false":  "8e7222388d25590e3c352f973bf968986d1d1d748eec4cfa21579a9e9b40997e",
	"addr-wire-3-compaction-true":   "502fa79dad57a297fab8044fdcd16256d66350f797cb5eae4a4e5bb79035bcab",
	"addr-wire-4-compaction-false":  "b191a478fd04955212722062e52b80976a29cb657814aaf058315e769a568248",
	"addr-wire-4-compaction-true":   "e1223fb4fc6fb1683c2939aeffddeec60d09babd5b96413faef8d4beee411c07",
	"addr-wire-5-compaction-false":  "48b9b07fda9fd8c5408a5525812aedfa91396e5afeb9711cf3ea56d981ffb8de",
	"addr-wire-5-compaction-true":   "48085f34aa6dc9a468bf3b3490f3095dbf80e39550a124b81191f3beb23a3b44",
	"addr-wire-6-compaction-false":  "88709e6cf4a15557ac834c6da89425a65c3514fc3f79b592f4b11acb9b3860ae",
	"addr-wire-6-compaction-true":   "fc81fe12363838b6f03517d4d02026df6fe267e0ed55032680892b448ac1b166",
	"addr-wire-7-compaction-false":  "f27f1a75fc837b6aeaf70be51e011337326443f8b7cba826e7be9ee91a3735e0",
	"addr-wire-7-compaction-true":   "6ad7b254363713e72e23d55319271005a125eb3b0919fa1f61d3a625f2929243",
	"addr-wire-8-compaction-false":  "33808105e251a272439a9091d6f98c4175f3c2578cc40c42caf08e0e0613a0b0",
	"addr-wire-8-compaction-true":   "067e3b6ebc84aa1a07a37f46e51e046472b94f1f500d54969f112cfe9f90f3fe",
	"addr-wire-9-compaction-false":  "b0f566b787ed3e7e10a4add4d2cf2f45f0b56e91ef595c96230e738ae451a782",
	"addr-wire-9-compaction-true":   "22868ca5e2d68de38f1468cca555ff2d2d33d6f64dc9a05ab3997e7947f83e3b",
	"compaction":                    "28044c7b607324314dd30c2d1845594048dffd4a063e524cb1fbb029c18806a8",
	"data-wire-0-compaction-false":  "6016e6f6ac20516bf48a18f01b398e91b86d43c739410582f86b360b6811b0ca",
	"data-wire-0-compaction-true":   "39dea765ddc978f7645ffc112159f6ada1f62fa32d057700f9dded9648980bf1",
	"data-wire-1-compaction-false":  "81c75bfc07ee68f7b9fa257d17b4d54cf2e6ef6f6e277bbba9be440c7aa9ac43",
	"data-wire-1-compaction-true":   "b68338d6b3e9c0b241863f890f4888fa664b8da368b007b14aadf7144416a273",
	"data-wire-2-compaction-false":  "6c7c9afa5a9b0c3c1b06482138c6ea8f43027edf376738349e6e1b903a1398a3",
	"data-wire-2-compaction-true":   "e4b65788bf376b46530aa9e277a8adf1e36b80a154d69ba558c51b865cd79b5e",
	"data-wire-3-compaction-false":  "2f86613b6a7f5015e92ce82194d98c271b3c17d3380c43af460e6fd4f9fe5303",
	"data-wire-3-compaction-true":   "5a516364df4a8c86dd70afed650327b2de3a398b700f1430d89860c8e336852e",
	"data-wire-4-compaction-false":  "a6e59c75ca6c7e6cf6d2389e6c6fecf13f14399868ee8cffcddbcdefee959383",
	"data-wire-4-compaction-true":   "049f0a73d13a043b21ec8d00e218f1126de768d1f918867c6d945fdc3a7c16bd",
	"data-wire-5-compaction-false":  "c4efa8630a6c703df35d91cdc724a6a0604be94def110446e49d6003c1ba6b95",
	"data-wire-5-compaction-true":   "061e26a82360c436771dded622e8e0aa153afbbad4a2f911d6dcdc98499397b0",
	"data-wire-6-compaction-false":  "199621e9d000c7987f7e986ae5611e36fc64588bb75881e414e4480558324961",
	"data-wire-6-compaction-true":   "a8bc5d09eb984634ad05b03b906899e2cd1b8d562c5beb0c5aeaa9365bb24fec",
	"data-wire-7-compaction-false":  "289510cb7822020ada388bac1b1c39d93e3285a7a726ed857c4947906a0fc826",
	"data-wire-7-compaction-true":   "cbd31edf717e8d71bc09fedfe1d3550d129ad361add142a5e55428e54d75835e",
	"default":                       "9494d274bfdba97d5976a1d5ded9d83bf3a37630e9e90943bee7fca30812c413",
	"random-filters":                "563173b006dd7c9636a129a6d1db958ebc3a768d28d83a3428e2fc10667e92a1",
	"sessions-1":                    "84d1500e0a87d374f9d39fe21fc0d3fe3068f973f6191644481f47f3eeb20fa8",
	"sessions-2":                    "0e22e38a6fcde10fabd580098e898398921d72e4e1ffa7a8b7b73b915237cdf4",
	"sessions-3":                    "a81606cf2496361f31eaf2ea0dc98bcc4d5a96a339ced5b9fc5909cc2c989eab",
	"sessions-6":                    "d52a19bb3ac6493953312e73a4250d938e6e019cb1aba86f120dd4d27d4aad02",
	"skip-addr":                     "d104ba5bf2524dffc7886d2b33d92651b53b72b0e71167f201292bcd7240510a",
	"skip-data":                     "7bf271a7123a1afa276b4f1679c649faba056d894c04f8d8d6fafd0f441f6684",
}

// generatedPlanConfigs lists the pinned configurations: the default plan and
// each generator option, then every per-wire plan Fig. 11 builds (the
// victim's tests alone on its bus), with and without compaction.
func generatedPlanConfigs() []struct {
	name string
	cfg  core.GenConfig
} {
	type named = struct {
		name string
		cfg  core.GenConfig
	}
	cases := []named{
		{"default", core.GenConfig{}},
		{"compaction", core.GenConfig{Compaction: true}},
		{"sessions-1", core.GenConfig{MaxSessions: 1}},
		{"sessions-2", core.GenConfig{MaxSessions: 2}},
		{"sessions-3", core.GenConfig{MaxSessions: 3}},
		{"sessions-6", core.GenConfig{MaxSessions: 6}},
		{"skip-data", core.GenConfig{SkipDataBus: true}},
		{"skip-addr", core.GenConfig{SkipAddrBus: true}},
	}
	for _, bus := range []core.BusID{core.AddrBus, core.DataBus} {
		width := parwan.AddrBits
		if bus == core.DataBus {
			width = parwan.DataBits
		}
		for w := 0; w < width; w++ {
			for _, compaction := range []bool{false, true} {
				w := w
				cases = append(cases, named{
					name: fmt.Sprintf("%v-wire-%d-compaction-%v", bus, w, compaction),
					cfg: core.GenConfig{
						SkipDataBus: bus == core.AddrBus,
						SkipAddrBus: bus == core.DataBus,
						Compaction:  compaction,
						Filter:      func(f maf.Fault) bool { return f.Victim == w },
					},
				})
			}
		}
	}
	return cases
}

// maskFilter accepts the faults whose bit is set in a 112-bit mask over the
// Parwan fault universe: the 64 data-bus faults in maf.Universe order on
// bits 0..63 of data, then the 48 address-bus faults on bits 0..47 of addr.
func maskFilter(data, addr uint64) func(maf.Fault) bool {
	bit := make(map[maf.Fault]uint64)
	for i, f := range maf.Universe(parwan.DataBits, true) {
		bit[f] = data >> i & 1
	}
	for i, f := range maf.Universe(parwan.AddrBits, false) {
		bit[f] = addr >> i & 1
	}
	return func(f maf.Fault) bool { return bit[f] == 1 }
}

func planBytes(t *testing.T, cfg core.GenConfig) []byte {
	t.Helper()
	plan, err := core.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.WritePlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGeneratedPlansPinned pins every generated plan byte for byte,
// inapplicable tests' reasons included: a change to the placement search's
// order, its first success or its reason text changes a digest. The random
// masks come from a fixed math/rand seed, whose value stream the Go 1
// compatibility promise freezes.
func TestGeneratedPlansPinned(t *testing.T) {
	got := make(map[string]string)
	for _, c := range generatedPlanConfigs() {
		got[c.name] = digest(planBytes(t, c.cfg))
	}
	rng := rand.New(rand.NewSource(32))
	h := sha256.New()
	for i := 0; i < 200; i++ {
		data, addr := rng.Uint64(), rng.Uint64()&(1<<(4*parwan.AddrBits)-1)
		cfg := core.GenConfig{
			MaxSessions: 1 + rng.Intn(8),
			Compaction:  rng.Intn(2) == 1,
			Filter:      maskFilter(data, addr),
		}
		h.Write(planBytes(t, cfg))
	}
	got["random-filters"] = hex.EncodeToString(h.Sum(nil))

	for name, sum := range got {
		if want := pinnedPlans[name]; sum != want {
			t.Errorf("%s: plan digest %s, want %s", name, sum, want)
		}
	}
	if len(got) != len(pinnedPlans) {
		t.Errorf("%d digests, %d pinned", len(got), len(pinnedPlans))
	}
}
