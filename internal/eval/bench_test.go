package eval

// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation (see DESIGN.md's per-experiment index). Each iteration
// regenerates the experiment at paper scale through the evaluation harness
// and reports the headline quantities as custom metrics, so
// `go test -bench=. -benchmem` both times the reproduction and prints the
// numbers EXPERIMENTS.md records.

import "testing"

// benchOpts runs experiments at paper scale (40k OpenImages / 91k ImageNet
// samples) with the default seed.
func benchOpts() Options { return Options{Seed: 2024} }

func BenchmarkTable1_CapabilityMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := table1()
		if len(t.Rows) != 5 {
			b.Fatalf("table 1 rows = %d", len(t.Rows))
		}
	}
}

func BenchmarkFigure1a_SizeTrace(b *testing.B) {
	var minA int
	for i := 0; i < b.N; i++ {
		res, _, err := figure1a(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		minA = res.minStageA()
	}
	b.ReportMetric(float64(minA), "sampleA_min_stage")
}

func BenchmarkFigure1b_MinStageDistribution(b *testing.B) {
	var oi, in float64
	for i := 0; i < b.N; i++ {
		res, _, err := figure1b(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		oi = res.Benefiting["openimages-12g"]
		in = res.Benefiting["imagenet-11g"]
	}
	b.ReportMetric(oi*100, "openimages_benefiting_%")
	b.ReportMetric(in*100, "imagenet_benefiting_%")
}

func BenchmarkFigure1c_EfficiencyCDF(b *testing.B) {
	var zero, p50 float64
	for i := 0; i < b.N; i++ {
		res, _, err := figure1c(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		zero = res.FractionZero
		p50 = res.PercentileMBps[50]
	}
	b.ReportMetric(zero*100, "zero_efficiency_%")
	b.ReportMetric(p50, "p50_MB_per_cpu_s")
}

func BenchmarkFigure1d_GPUUtilization(b *testing.B) {
	var alexnet, r18, r50 float64
	for i := 0; i < b.N; i++ {
		res, _, err := figure1d(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		alexnet = res.Utilization["alexnet"]
		r18 = res.Utilization["resnet18"]
		r50 = res.Utilization["resnet50"]
	}
	b.ReportMetric(alexnet*100, "alexnet_util_%")
	b.ReportMetric(r18*100, "resnet18_util_%")
	b.ReportMetric(r50*100, "resnet50_util_%")
}

func BenchmarkFigure3_AmpleCPU(b *testing.B) {
	var oiReduction, inReduction float64
	for i := 0; i < b.N; i++ {
		results, _, err := figure3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			noOff, _ := res.run("No-Off")
			sophon, _ := res.run("SOPHON")
			reduction := noOff.TrafficGB / sophon.TrafficGB
			if res.Dataset == "openimages-12g" {
				oiReduction = reduction
			} else {
				inReduction = reduction
			}
		}
	}
	b.ReportMetric(oiReduction, "openimages_traffic_reduction_x")
	b.ReportMetric(inReduction, "imagenet_traffic_reduction_x")
}

func BenchmarkFigure4_LimitedCPU(b *testing.B) {
	var firstGain, lastGain float64
	for i := 0; i < b.N; i++ {
		res, _, err := figure4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		s := res.Runs["SOPHON"]
		firstGain = s[0].EpochSeconds - s[1].EpochSeconds // 0→1 core
		lastGain = s[4].EpochSeconds - s[5].EpochSeconds  // 4→5 cores
	}
	b.ReportMetric(firstGain, "core0to1_gain_s")
	b.ReportMetric(lastGain, "core4to5_gain_s")
}

func BenchmarkHeadline_Speedup(b *testing.B) {
	var minSpeedup, maxReduction float64
	for i := 0; i < b.N; i++ {
		rows, _, err := headline(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		minSpeedup, maxReduction = rows[0].TimeSpeedup, 0
		for _, r := range rows {
			if r.TimeSpeedup < minSpeedup {
				minSpeedup = r.TimeSpeedup
			}
			if r.TrafficReduction > maxReduction {
				maxReduction = r.TrafficReduction
			}
		}
	}
	b.ReportMetric(minSpeedup, "min_speedup_x")
	b.ReportMetric(maxReduction, "max_traffic_reduction_x")
}

func BenchmarkAblation_StepGuard(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		rows, _, err := ablationStepGuard(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		delta = rows[0].BaseSeconds - rows[0].GuardedSeconds
	}
	b.ReportMetric(delta, "guard_gain_at_1core_s")
}

func BenchmarkAblation_HeterogeneousCPU(b *testing.B) {
	var penalty float64
	for i := 0; i < b.N; i++ {
		rows, _, err := ablationHeterogeneous(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		penalty = rows[len(rows)-1].EpochSeconds / rows[0].EpochSeconds
	}
	b.ReportMetric(penalty, "slow3x_epoch_penalty_x")
}

func BenchmarkAblation_LocalCache(b *testing.B) {
	var sophonVsQuarterCache float64
	for i := 0; i < b.N; i++ {
		rows, _, err := ablationLocalCache(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.CapacityFraction == 0.25 {
				sophonVsQuarterCache = r.CacheSeconds / r.SophonSeconds
			}
		}
	}
	b.ReportMetric(sophonVsQuarterCache, "cache25_over_sophon_x")
}

func BenchmarkAblation_OracleGap(b *testing.B) {
	var gapAt1Core float64
	for i := 0; i < b.N; i++ {
		rows, _, err := ablationOracle(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Cores == 1 {
				gapAt1Core = r.OracleSec / r.SophonSec
			}
		}
	}
	b.ReportMetric(gapAt1Core, "oracle_over_sophon_at_1core_x")
}

func BenchmarkValidation_ModelVsDES(b *testing.B) {
	var maxErr float64
	for i := 0; i < b.N; i++ {
		rows, _, err := validateModel(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		maxErr = 0
		for _, r := range rows {
			if r.ErrorPct > maxErr {
				maxErr = r.ErrorPct
			}
		}
	}
	b.ReportMetric(maxErr, "max_model_error_pct")
}

func BenchmarkDiscussionF_BandwidthSweep(b *testing.B) {
	var activations int
	for i := 0; i < b.N; i++ {
		rows, _, err := discussionBandwidthSweep(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		activations = 0
		for _, r := range rows {
			if r.Activated {
				activations++
			}
		}
	}
	b.ReportMetric(float64(activations), "io_bound_points")
}

func BenchmarkDiscussionG_LLMWorkload(b *testing.B) {
	var offloaded int
	for i := 0; i < b.N; i++ {
		res, _, err := discussionLLM(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		offloaded = res.Offloaded
	}
	b.ReportMetric(float64(offloaded), "samples_offloaded")
}

func BenchmarkAblation_MultiTenant(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		res, _, err := ablationMultiTenant(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		gain = res.EvenTotalSeconds - res.SmartTotalSeconds
	}
	b.ReportMetric(gain, "scheduler_gain_s")
}
