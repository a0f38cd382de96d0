// Pins the parwan backend's report bytes across the target-backend
// refactor: the SHA-256 hashes below were recorded from the pre-refactor
// tree for the E5 campaign, diagnose, and minimize reports on the address
// bus, and the refactored stack must reproduce them exactly. The campaign
// hashes are of those documents with their former "fig11" block cut.
package repro_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/report"
)

// Pre-refactor report hashes, keyed by "type/size". Size 120 is the -short
// library, 1000 the paper's E5 library; all on the addr bus, seed 3001.
var preRefactorHashes = map[string]string{
	"campaign/120":  "f0d9fe907af451f2f823eafe1c8aa95adc40395c4beb37288b1c0aa5290c8e1c",
	"diagnose/120":  "bc1d86c300742886ce8e5c42988502f14d11a1dc8db95dc459e437216867d4ab",
	"minimize/120":  "397e71788078fa616b759678cf63e7f5d5a2c3d7e973cdf9353fd83aa2884337",
	"campaign/1000": "3c8bf991be2bba90e34087efe1e965760f5b9de0bdbc6ed684aa0488e0a4f496",
	"diagnose/1000": "52e2569633dd0b98ff0633c2de5972ef7646fa799a3a60b17f376db834240e5b",
	"minimize/1000": "e2fbe981e386b0badf990e64efb8eb2ea7955be2b7a2cfcb7718283c403b4d0f",
}

// renderJob runs one job on a fresh manager and renders its report document.
func renderJob(t *testing.T, spec campaign.Spec) []byte {
	t.Helper()
	m := campaign.New(campaign.Config{})
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if err := job.Err(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	switch spec.JobType() {
	case campaign.TypeCampaign:
		res, width, ok := job.Result()
		if !ok {
			t.Fatal("campaign job produced no result")
		}
		if err := report.WriteCampaignJSON(&buf, res, width); err != nil {
			t.Fatal(err)
		}
	case campaign.TypeDiagnose:
		an, ok := job.Analysis()
		if !ok {
			t.Fatal("diagnose job produced no analysis")
		}
		if err := report.WriteDiagnosisJSON(&buf, an.Diagnosis); err != nil {
			t.Fatal(err)
		}
	case campaign.TypeMinimize:
		an, ok := job.Analysis()
		if !ok {
			t.Fatal("minimize job produced no analysis")
		}
		if err := report.WriteMinimizeJSON(&buf, an.Minimize); err != nil {
			t.Fatal(err)
		}
	case campaign.TypeRank:
		an, ok := job.Analysis()
		if !ok {
			t.Fatal("rank job produced no analysis")
		}
		if err := report.WriteRankJSON(&buf, an.Rank); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestParwanReportsByteIdenticalToPreRefactor(t *testing.T) {
	size := 1000
	if testing.Short() {
		size = 120
	}
	for _, typ := range []string{campaign.TypeCampaign, campaign.TypeDiagnose, campaign.TypeMinimize} {
		typ := typ
		t.Run(typ, func(t *testing.T) {
			spec := campaign.Spec{Bus: "addr", Size: size, Seed: 3001}
			if typ != campaign.TypeCampaign {
				spec.Type = typ
			}
			doc := renderJob(t, spec)
			got := fmt.Sprintf("%x", sha256.Sum256(doc))
			want := preRefactorHashes[fmt.Sprintf("%s/%d", typ, size)]
			if got != want {
				t.Errorf("%s report hash %s, want pre-refactor %s", typ, got, want)
			}
		})
	}
}

// Analysis report hashes, keyed by "type/target/size" and, for a diagnose
// job given the signature ["dr[3]/fwd"], "diagnose+sig/...". They pin what
// preRefactorHashes does not: rank reports, a localized candidate list with
// its float scores, and the three analysis documents of a wide bus. The
// diagnose and minimize rows were recorded while diagnosis still re-encoded
// each detection set as an index list; the rank rows when rank jobs began
// to run each line's MA tests as their own program. Seed 3001 throughout;
// the addr rows run at 120 defects under -short and 1000 otherwise, the
// widebus16 rows at 120.
var analysisHashes = map[string]string{
	"rank/addr/120":          "71192afcd0a5dc1c371161df47a2b85841622ef12bf0ba8757333e0f8818d055",
	"rank/addr/1000":         "76a55012568494fa9fba2a94a9a2df8ecefdbf599c0f85a4104000fd18069654",
	"diagnose+sig/addr/120":  "b2fc6941b3a8b4808b72aab8933566ed30ef6395f3968edbaf68d71e43a13e7d",
	"diagnose+sig/addr/1000": "5a1f7026b777dcd50a844080abdc70e325ecd68a0ea3befc5bea7fbd39059d8f",
	"diagnose/widebus16/120": "cb6f5b982a85f6e6fd73affa3c469042d854e5e421fc743844d00315d138e909",
	"minimize/widebus16/120": "e1e0a7c70b4e7428db31fc485eae74acb1cd55c12ac0446981a274b61b40fd5c",
	"rank/widebus16/120":     "bb068fd902416b30743f8c70d06adf2aa6669384f460a6890283f973ecc5f8b2",
}

func TestAnalysisReportsPinned(t *testing.T) {
	size := 1000
	if testing.Short() {
		size = 120
	}
	addr := campaign.Spec{Bus: "addr", Size: size, Seed: 3001}
	wide := campaign.Spec{Target: "widebus16", Bus: "bus", Size: 120, Seed: 3001}
	withType := func(s campaign.Spec, typ string) campaign.Spec { s.Type = typ; return s }
	sig := withType(addr, campaign.TypeDiagnose)
	sig.Signature = []string{"dr[3]/fwd"}
	for key, spec := range map[string]campaign.Spec{
		fmt.Sprintf("rank/addr/%d", size):         withType(addr, campaign.TypeRank),
		fmt.Sprintf("diagnose+sig/addr/%d", size): sig,
		"diagnose/widebus16/120":                  withType(wide, campaign.TypeDiagnose),
		"minimize/widebus16/120":                  withType(wide, campaign.TypeMinimize),
		"rank/widebus16/120":                      withType(wide, campaign.TypeRank),
	} {
		t.Run(strings.ReplaceAll(key, "/", "-"), func(t *testing.T) {
			got := fmt.Sprintf("%x", sha256.Sum256(renderJob(t, spec)))
			if want := analysisHashes[key]; got != want {
				t.Errorf("%s report hash %s, want %s", key, got, want)
			}
		})
	}
}
