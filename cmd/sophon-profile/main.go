// Command sophon-profile inspects a dataset profile the way SOPHON's
// stage-2 profiler sees it: per-stage size distribution, min-stage
// histogram, offloading-efficiency percentiles, and the decision the engine
// would make in a given environment.
//
// Usage:
//
//	sophon-profile -profile openimages -cores 4 -mbps 500
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/netsim"
	"repro/internal/persist"
	"repro/internal/policy"
)

func main() {
	if err := run(flag.CommandLine, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "sophon-profile: %v\n", err)
		os.Exit(1)
	}
}

// run is the command: flags declared on fs (main's exits on a bad command
// line, a test's returns the error), the report on stdout.
func run(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	profileName := fs.String("profile", "openimages", "dataset profile (openimages|imagenet)")
	n := fs.Int("n", 0, "sample-count override (0 = paper scale)")
	seed := fs.Uint64("seed", 2024, "generation seed")
	cores := fs.Int("cores", 48, "storage cores for the planning preview")
	mbps := fs.Float64("mbps", 500, "link bandwidth (Mbit/s)")
	modelName := fs.String("model", "alexnet", "GPU model profile")
	dumpTrace := fs.String("dump-trace", "", "write the generated trace to this file (for sophon-train -trace-file)")
	dumpPlan := fs.String("dump-plan", "", "write the SOPHON plan to this file (for sophon-train -plan-file)")
	if done, err := cliutil.ParseArgs(fs, args, "sophon-profile", "Inspects a dataset profile and previews the SOPHON offload plan for an environment."); done || err != nil {
		return err
	}
	if err := cliutil.IntError(fs,
		map[string]bool{"cores": true},
		map[string]bool{"n": true},
		map[string]int{"cores": *cores, "n": *n}); err != nil {
		return err
	}

	var profile dataset.Profile
	switch strings.ToLower(*profileName) {
	case "openimages":
		profile = dataset.OpenImages12G()
	case "imagenet":
		profile = dataset.ImageNet11G()
	default:
		return fmt.Errorf("unknown profile %q", *profileName)
	}
	if *n > 0 {
		profile = profile.ScaledTo(*n)
	}
	model, err := gpu.ByName(*modelName)
	if err != nil {
		return err
	}

	tr, err := dataset.GenerateTrace(profile, *seed)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "dataset %s: %d samples, %.2f GB raw (mean %.0f KB)\n",
		tr.Name, tr.N(), float64(tr.TotalRawBytes())/1e9,
		float64(tr.TotalRawBytes())/float64(tr.N())/1e3)
	fmt.Fprintf(stdout, "full preprocessing: %.0f CPU-seconds (%.1f ms/sample)\n",
		tr.TotalPreprocessCPU().Seconds(),
		tr.TotalPreprocessCPU().Seconds()/float64(tr.N())*1e3)

	names := []string{"raw", "decode", "rrcrop", "flip", "totensor", "normalize"}
	hist := tr.MinStageHistogram()
	fmt.Fprintln(stdout, "\nmin-size stage histogram:")
	for i, c := range hist {
		fmt.Fprintf(stdout, "  %-10s %6.2f%%  (%d samples)\n", names[i], 100*float64(c)/float64(tr.N()), c)
	}
	fmt.Fprintf(stdout, "benefiting from offload: %.1f%%\n", 100*tr.FractionBenefiting())

	cands := policy.Candidates(tr)
	effs := make([]float64, 0, len(cands))
	for _, c := range cands {
		if c.Efficiency > 0 {
			effs = append(effs, c.Efficiency)
		}
	}
	sort.Float64s(effs)
	if len(effs) > 0 {
		fmt.Fprintln(stdout, "\noffloading efficiency among beneficiaries (MB saved / CPU-second):")
		for _, p := range []int{10, 50, 90, 99} {
			fmt.Fprintf(stdout, "  p%-3d %8.2f\n", p, effs[p*(len(effs)-1)/100]/1e6)
		}
	}

	env := policy.Env{
		Bandwidth:       netsim.Mbps(*mbps),
		ComputeCores:    48,
		StorageCores:    *cores,
		StorageSlowdown: 1,
		GPU:             model,
	}
	plan, err := policy.NewSophon().Plan(tr, env)
	if err != nil {
		return err
	}
	m, err := policy.ModelFor(tr, plan, env)
	if err != nil {
		return err
	}
	base, _ := policy.NewUniformPlan("No-Off", tr.N(), 0)
	bm, _ := policy.ModelFor(tr, base, env)
	traffic, _ := plan.Traffic(tr)
	fmt.Fprintf(stdout, "\nSOPHON plan at %d storage cores, %.0f Mbps, %s:\n", *cores, *mbps, model.Name)
	fmt.Fprintf(stdout, "  offloaded %d/%d samples\n", plan.OffloadedCount(), tr.N())
	splitHist := plan.SplitHistogram()
	for k, c := range splitHist {
		if k > 0 && c > 0 {
			fmt.Fprintf(stdout, "    split %d (%s prefix): %d samples\n", k, names[k], c)
		}
	}
	fmt.Fprintf(stdout, "  traffic   %.2f GB (No-Off %.2f GB, %.2fx reduction)\n",
		float64(traffic)/1e9, float64(tr.TotalRawBytes())/1e9,
		float64(tr.TotalRawBytes())/float64(traffic))
	fmt.Fprintf(stdout, "  epoch     T_G=%.1fs T_CC=%.1fs T_CS=%.1fs T_Net=%.1fs → %.1fs (No-Off %.1fs)\n",
		m.TG.Seconds(), m.TCC.Seconds(), m.TCS.Seconds(), m.TNet.Seconds(),
		m.Predicted().Seconds(), bm.Predicted().Seconds())

	if *dumpTrace != "" {
		if err := persist.SaveTrace(*dumpTrace, tr); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\ntrace written to %s\n", *dumpTrace)
	}
	if *dumpPlan != "" {
		if err := persist.SavePlan(*dumpPlan, plan); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "plan written to %s\n", *dumpPlan)
	}
	return nil
}
