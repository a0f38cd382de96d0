package defects

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/target"
)

// TestLibraryDigestPinned pins the seed-1 libraries the benchmark and the
// paper-scale experiments draw: the E5 address and data buses at 1,000
// defects and widebus64 at 200. The digest covers every defect byte
// (json.Marshal of Defects, parameters included) and TotalAttempts counts
// the rejected draws too, so any change to the random stream or to the
// acceptance test fails here before it moves a report.
func TestLibraryDigestPinned(t *testing.T) {
	parwan, err := target.Parwan().BusModels(0)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := target.WideBus(64)
	if err != nil {
		t.Fatal(err)
	}
	wideModels, err := wide.BusModels(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		model    target.BusModel
		size     int
		attempts int
		digest   string
	}{
		{"e5-addr", parwan[core.AddrBus], 1000, 12647, "f549b45f4169bcd7c5f2d6ab20dc3d52afc50e3a4580167bb42d8a96d9c59a47"},
		{"e5-data", parwan[core.DataBus], 1000, 14967, "73ff32d49d9d7986c511fd8924f937f6ed2f27d7844bc504bb1a65840cdcbb6d"},
		{"widebus64", wideModels[0], 200, 669, "ec94f00c061bd366ad7edaa815c1c4e71753b9555657c8edaf8bcd3e822c1530"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lib, err := Generate(tc.model.Nominal, tc.model.Thresholds, Config{Size: tc.size, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got := libraryDigest(t, lib); got != tc.digest {
				t.Errorf("digest %s, want %s", got, tc.digest)
			}
			if lib.TotalAttempts != tc.attempts {
				t.Errorf("TotalAttempts %d, want %d", lib.TotalAttempts, tc.attempts)
			}
		})
	}
}

func libraryDigest(t *testing.T, lib *Library) string {
	t.Helper()
	b, err := json.Marshal(lib.Defects)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// BenchmarkGenerate times Generate on a library-cache miss, a fresh seed per
// iteration: widebus64's 200 defects (2,016 normals an attempt, about 1.35
// million a library) and the Parwan address bus's 1,000 (66 an attempt).
func BenchmarkGenerate(b *testing.B) {
	parwan, err := target.Parwan().BusModels(0)
	if err != nil {
		b.Fatal(err)
	}
	wide, err := target.WideBus(64)
	if err != nil {
		b.Fatal(err)
	}
	wideModels, err := wide.BusModels(0)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		model target.BusModel
		size  int
	}{
		{"widebus64", wideModels[0], 200},
		{"parwan-addr", parwan[core.AddrBus], 1000},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := Generate(tc.model.Nominal, tc.model.Thresholds, Config{Size: tc.size, Seed: int64(1000 + i)})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
