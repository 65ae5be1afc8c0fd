package eval

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testOpts shrinks datasets so the full suite runs in well under a second.
func testOpts() Options {
	return Options{Seed: 7, OpenImages: 3000, ImageNet: 3000}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{
		Title:   "demo",
		Columns: []string{"a", "bbbb"},
		Notes:   []string{"hello"},
	}
	tbl.AddRow("x", "y")
	out := tbl.String()
	for _, want := range []string{"== demo ==", "a", "bbbb", "x", "y", "note: hello", "----"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	tbl := Table1()
	if len(tbl.Rows) != 5 {
		t.Fatalf("Table 1 has %d rows", len(tbl.Rows))
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[0] != "SOPHON" {
		t.Fatalf("last row is %q", last[0])
	}
	for i := 1; i < 5; i++ {
		if last[i] != "yes" {
			t.Fatalf("SOPHON column %d = %q", i, last[i])
		}
	}
	// No baseline has full data-selectivity.
	for _, row := range tbl.Rows[:4] {
		if row[3] == "yes" {
			t.Fatalf("%s claims data-selectivity", row[0])
		}
	}
}

// TestFigure1aShape: sample A's min is mid-pipeline with ~4x tensor
// inflation; sample B's min is the raw form — the paper's two motivating
// samples.
func TestFigure1aShape(t *testing.T) {
	res, tbl, err := Figure1a(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MinStageA(); got != 2 && got != 3 {
		t.Fatalf("sample A min stage %d, want crop/flip", got)
	}
	if res.MinStageB() != 0 {
		t.Fatalf("sample B min stage %d, want raw", res.MinStageB())
	}
	// Sample A raw should be in the hundreds of KB like the paper's 462 KB.
	if res.SampleA[0] < 200e3 || res.SampleA[0] > 900e3 {
		t.Fatalf("sample A raw %d bytes", res.SampleA[0])
	}
	ratio := float64(res.SampleA[4]) / float64(res.SampleA[3])
	if ratio < 3.9 || ratio > 4.1 {
		t.Fatalf("ToTensor inflation %.2f, want ~4", ratio)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("figure 1a table rows = %d", len(tbl.Rows))
	}
}

func TestFigure1bMatchesPaperFractions(t *testing.T) {
	res, _, err := Figure1b(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	oi := res.Benefiting["openimages-12g"]
	if oi < 0.72 || oi > 0.80 {
		t.Fatalf("OpenImages benefiting %.3f, want ~0.76", oi)
	}
	in := res.Benefiting["imagenet-11g"]
	if in < 0.21 || in > 0.31 {
		t.Fatalf("ImageNet benefiting %.3f, want ~0.26", in)
	}
	// Fractions per dataset sum to 1.
	for name, hist := range res.Hist {
		sum := 0.0
		for _, f := range hist {
			sum += f
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("%s histogram sums to %f", name, sum)
		}
	}
}

func TestFigure1cShape(t *testing.T) {
	res, _, err := Figure1c(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.FractionZero < 0.20 || res.FractionZero > 0.28 {
		t.Fatalf("fraction at zero %.3f, want ~0.24", res.FractionZero)
	}
	if res.PercentileMBps[99] <= res.PercentileMBps[50] {
		t.Fatal("efficiency distribution not increasing")
	}
	if res.PercentileMBps[50] <= 0 {
		t.Fatal("median efficiency is zero")
	}
}

func TestFigure1dShape(t *testing.T) {
	res, _, err := Figure1d(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization["resnet50"] < 0.85 {
		t.Fatalf("ResNet50 util %.2f", res.Utilization["resnet50"])
	}
	if u := res.Utilization["resnet18"]; u < 0.25 || u > 0.50 {
		t.Fatalf("ResNet18 util %.2f", u)
	}
	if res.Utilization["alexnet"] > 0.2 {
		t.Fatalf("AlexNet util %.2f", res.Utilization["alexnet"])
	}
}

// TestFigure3MatchesPaperShape checks every qualitative claim of Figure 3.
func TestFigure3MatchesPaperShape(t *testing.T) {
	results, _, err := Figure3(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d datasets", len(results))
	}
	for _, res := range results {
		noOff, _ := res.Run("No-Off")
		allOff, _ := res.Run("All-Off")
		fastFlow, _ := res.Run("FastFlow")
		resizeOff, _ := res.Run("Resize-Off")
		sophon, _ := res.Run("SOPHON")

		if fastFlow.TrafficGB != noOff.TrafficGB {
			t.Errorf("%s: FastFlow traffic %f != No-Off %f", res.Dataset, fastFlow.TrafficGB, noOff.TrafficGB)
		}
		if allOff.EpochSeconds <= noOff.EpochSeconds {
			t.Errorf("%s: All-Off not slowest", res.Dataset)
		}
		if sophon.EpochSeconds >= noOff.EpochSeconds {
			t.Errorf("%s: SOPHON not faster than No-Off", res.Dataset)
		}
		if sophon.TrafficGB >= noOff.TrafficGB {
			t.Errorf("%s: SOPHON did not reduce traffic", res.Dataset)
		}

		switch res.Dataset {
		case "openimages-12g":
			if r := allOff.TrafficGB / noOff.TrafficGB; r < 1.7 || r > 2.3 {
				t.Errorf("OpenImages All-Off traffic ratio %.2f, want ~1.9-2.0", r)
			}
			if r := resizeOff.TrafficGB / noOff.TrafficGB; r < 0.40 || r > 0.60 {
				t.Errorf("OpenImages Resize-Off traffic ratio %.2f, want ~0.5", r)
			}
			if r := noOff.TrafficGB / sophon.TrafficGB; r < 1.9 || r > 2.5 {
				t.Errorf("OpenImages SOPHON reduction %.2f, want ~2.2", r)
			}
		case "imagenet-11g":
			if r := allOff.TrafficGB / noOff.TrafficGB; r < 4.3 || r > 5.7 {
				t.Errorf("ImageNet All-Off traffic ratio %.2f, want ~5", r)
			}
			if r := resizeOff.TrafficGB / noOff.TrafficGB; r < 1.1 || r > 1.45 {
				t.Errorf("ImageNet Resize-Off traffic ratio %.2f, want ~1.3 (an increase)", r)
			}
			if r := noOff.TrafficGB / sophon.TrafficGB; r < 1.1 || r > 1.5 {
				t.Errorf("ImageNet SOPHON reduction %.2f, want ~1.2", r)
			}
		default:
			t.Errorf("unexpected dataset %q", res.Dataset)
		}
	}
}

// TestFigure4MatchesPaperShape checks the limited-CPU claims.
func TestFigure4MatchesPaperShape(t *testing.T) {
	res, _, err := Figure4(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	coreIdx := map[int]int{}
	for i, c := range res.Cores {
		coreIdx[c] = i
	}
	noOff := res.Runs["No-Off"]
	resize := res.Runs["Resize-Off"]
	sophon := res.Runs["SOPHON"]

	// Resize-Off slower than No-Off at ≤2 cores, faster at ≥4.
	for _, c := range []int{1, 2} {
		if resize[coreIdx[c]].EpochSeconds <= noOff[coreIdx[c]].EpochSeconds {
			t.Errorf("Resize-Off@%d not slower than No-Off", c)
		}
	}
	if resize[coreIdx[8]].EpochSeconds >= noOff[coreIdx[8]].EpochSeconds {
		t.Error("Resize-Off@8 not faster than No-Off")
	}
	// SOPHON shortest (within 1%) at every core count.
	for i, c := range res.Cores {
		for name, runs := range res.Runs {
			if sophon[i].EpochSeconds > runs[i].EpochSeconds*1.01 {
				t.Errorf("cores=%d: SOPHON %.1fs slower than %s %.1fs",
					c, sophon[i].EpochSeconds, name, runs[i].EpochSeconds)
			}
		}
	}
	// Diminishing returns: 0→1 gain > 4→5 gain.
	g01 := sophon[coreIdx[0]].EpochSeconds - sophon[coreIdx[1]].EpochSeconds
	g45 := sophon[coreIdx[4]].EpochSeconds - sophon[coreIdx[5]].EpochSeconds
	if g01 <= 0 || g45 >= g01 {
		t.Errorf("diminishing returns violated: 0→1 %.1fs, 4→5 %.1fs", g01, g45)
	}
}

// TestHeadlineClaim: the abstract's 1.2–2.2× range.
func TestHeadlineClaim(t *testing.T) {
	rows, _, err := Headline(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d headline scenarios", len(rows))
	}
	for _, r := range rows {
		if r.TrafficReduction < 1.1 || r.TrafficReduction > 2.6 {
			t.Errorf("%s: traffic reduction %.2f outside the paper's band", r.Scenario, r.TrafficReduction)
		}
		if r.TimeSpeedup < 1.0 {
			t.Errorf("%s: speedup %.2f < 1", r.Scenario, r.TimeSpeedup)
		}
	}
}

func TestAblations(t *testing.T) {
	opts := testOpts()

	guard, _, err := AblationStepGuard(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range guard {
		if row.GuardedSeconds > row.BaseSeconds*1.02 {
			t.Errorf("guard at %d cores worse: %.1f vs %.1f", row.Cores, row.GuardedSeconds, row.BaseSeconds)
		}
	}

	hetero, _, err := AblationHeterogeneous(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(hetero) != 4 {
		t.Fatalf("%d hetero rows", len(hetero))
	}
	if hetero[3].EpochSeconds < hetero[0].EpochSeconds {
		t.Error("3x slower storage produced faster epochs")
	}

	mt, _, err := AblationMultiTenant(Options{Seed: 7, OpenImages: 1200, ImageNet: 1200})
	if err != nil {
		t.Fatal(err)
	}
	if mt.SmartTotalSeconds > mt.EvenTotalSeconds*1.001 {
		t.Errorf("scheduler %.1fs worse than even split %.1fs", mt.SmartTotalSeconds, mt.EvenTotalSeconds)
	}

	cacheRows, _, err := AblationLocalCache(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cacheRows) != 3 {
		t.Fatalf("%d cache rows", len(cacheRows))
	}
	for i, row := range cacheRows {
		// A bigger cache shortens the cached epoch.
		if i > 0 && row.CacheSeconds > cacheRows[i-1].CacheSeconds {
			t.Errorf("cache %v%% slower than smaller cache", row.CapacityFraction*100)
		}
		// SOPHON without local storage beats small caches.
		if row.CapacityFraction <= 0.25 && row.SophonSeconds >= row.CacheSeconds {
			t.Errorf("SOPHON (%.1fs) not faster than %.0f%% cache (%.1fs)",
				row.SophonSeconds, row.CapacityFraction*100, row.CacheSeconds)
		}
		// Composition is at least as good as either alone.
		if row.ComboSeconds > row.SophonSeconds*1.01 || row.ComboSeconds > row.CacheSeconds*1.01 {
			t.Errorf("combo (%.1fs) worse than components (%.1fs / %.1fs)",
				row.ComboSeconds, row.SophonSeconds, row.CacheSeconds)
		}
	}
}

// TestValidateModel: the analytic max() model the decision engine reasons
// with stays within ~12% of the discrete-event simulation everywhere the
// evaluation uses it.
func TestValidateModel(t *testing.T) {
	rows, _, err := ValidateModel(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 8 {
		t.Fatalf("%d validation rows", len(rows))
	}
	for _, r := range rows {
		if r.ErrorPct > 12 {
			t.Errorf("%s: model error %.1f%% (predicted %.1fs, DES %.1fs)",
				r.Scenario, r.ErrorPct, r.PredictedSec, r.SimulatedSec)
		}
	}
}

// TestAblationOracle: SOPHON matches the CPU-oblivious Oracle with ample
// cores and beats it under CPU constraints.
func TestAblationOracle(t *testing.T) {
	rows, _, err := AblationOracle(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	byCores := map[int]AblationOracleRow{}
	for _, r := range rows {
		byCores[r.Cores] = r
	}
	rich := byCores[48]
	if math.Abs(rich.SophonSec-rich.OracleSec) > rich.OracleSec*0.05 {
		t.Errorf("48 cores: SOPHON %.1fs far from Oracle %.1fs", rich.SophonSec, rich.OracleSec)
	}
	poor := byCores[1]
	if poor.SophonSec >= poor.OracleSec {
		t.Errorf("1 core: SOPHON %.1fs not better than CPU-oblivious Oracle %.1fs",
			poor.SophonSec, poor.OracleSec)
	}
	if poor.OracleTraffic > poor.SophonTraffic {
		t.Errorf("Oracle traffic %.2f above SOPHON %.2f", poor.OracleTraffic, poor.SophonTraffic)
	}
}

// TestValidateGenerator: the real tier obeys the model tier's size law
// exactly — the foundation of the dataset substitution.
func TestValidateGenerator(t *testing.T) {
	res, _, err := ValidateGenerator(48, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.LawViolations != 0 {
		t.Fatalf("%d size-law violations", res.LawViolations)
	}
	if res.MinStageMismatch != 0 {
		t.Fatalf("%d min-stage mismatches", res.MinStageMismatch)
	}
	if res.Benefiting <= 0 || res.Benefiting >= 1 {
		t.Fatalf("degenerate benefiting fraction %v", res.Benefiting)
	}
	// The law holds on Sizes; what image stages ship is the packed form,
	// well under it on photo-like content.
	if res.ShippedOverLaw < 0.2 || res.ShippedOverLaw > 0.7 {
		t.Fatalf("image stages ship %.3f of the law's bytes, want about 0.4", res.ShippedOverLaw)
	}
}

// TestDiscussionBandwidthSweep checks §5's crossover claims: SOPHON
// activates below the I/O crossover and declines above it, and the
// crossover moves to higher bandwidth with more GPUs sharing the link.
func TestDiscussionBandwidthSweep(t *testing.T) {
	rows, _, err := DiscussionBandwidthSweep(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]DiscussionFRow{}
	for _, r := range rows {
		byKey[fmt.Sprintf("%.2f/%d", r.GbpsLink, r.GPUs)] = r
	}
	// Slow link, 1 GPU: I/O-bound, activated, faster with SOPHON.
	slow := byKey["0.10/1"]
	if !slow.Activated || slow.Dominant != "TNet" {
		t.Fatalf("0.1Gbps/1GPU: %+v", slow)
	}
	if slow.SophonSecond >= slow.NoOffSeconds {
		t.Fatalf("0.1Gbps/1GPU: SOPHON %v not faster than %v", slow.SophonSecond, slow.NoOffSeconds)
	}
	// Fast link, 1 GPU: GPU-bound, declined, identical epochs.
	fast := byKey["4.00/1"]
	if fast.Activated || fast.Dominant != "TG" {
		t.Fatalf("4Gbps/1GPU: %+v", fast)
	}
	if fast.SophonSecond != fast.NoOffSeconds {
		t.Fatalf("4Gbps/1GPU: declined but epochs differ: %v vs %v", fast.SophonSecond, fast.NoOffSeconds)
	}
	// 8 GPUs push the crossover up: a link that is ample for 1 GPU is a
	// bottleneck for 8 (the paper's 16 Gbps argument).
	if one, eight := byKey["1.00/1"], byKey["1.00/8"]; one.Activated || !eight.Activated {
		t.Fatalf("1Gbps crossover: 1GPU activated=%v, 8GPU activated=%v", one.Activated, eight.Activated)
	}
}

// TestDiscussionLLM checks §5's LLM claim: zero candidates, plan ≡ No-Off.
func TestDiscussionLLM(t *testing.T) {
	res, _, err := DiscussionLLM(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates != 0 || res.Offloaded != 0 {
		t.Fatalf("LLM trace produced candidates=%d offloaded=%d", res.Candidates, res.Offloaded)
	}
	if res.SophonSeconds != res.NoOffSeconds {
		t.Fatalf("LLM epochs differ: %v vs %v", res.SophonSeconds, res.NoOffSeconds)
	}
}

func TestTableCSV(t *testing.T) {
	tbl := Table{
		Columns: []string{"a", "b"},
	}
	tbl.AddRow("1", "two, quoted \"x\"")
	got := tbl.CSV()
	want := "a,b\n1,\"two, quoted \"\"x\"\"\"\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestWriteCSVDir(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCSVDir(Options{Seed: 7, OpenImages: 800, ImageNet: 800}, dir); err != nil {
		t.Fatal(err)
	}
	for _, slug := range []string{"table1_capabilities", "figure3_ample_cpu", "discussion_g_llm"} {
		data, err := os.ReadFile(filepath.Join(dir, slug+".csv"))
		if err != nil {
			t.Fatalf("missing %s.csv: %v", slug, err)
		}
		if len(data) == 0 || !strings.Contains(string(data), ",") {
			t.Fatalf("%s.csv looks empty: %q", slug, data[:min(40, len(data))])
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestRunAllProducesFullReport(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(Options{Seed: 7, OpenImages: 1500, ImageNet: 1500}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table 1", "Figure 1a", "Figure 1b", "Figure 1c", "Figure 1d",
		"Figure 3", "Figure 4", "Headline",
		"Ablation A", "Ablation C", "Ablation D", "Ablation E",
		"Discussion F", "Discussion G",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}
