package sophon_test

import (
	"fmt"

	sophon "repro"
)

// Example_modelTier plans and simulates a full paper-scale epoch without
// touching the network: generate the OpenImages-like trace, let the SOPHON
// framework decide, and replay No-Off's and SOPHON's epochs through the
// discrete-event engine.
func Example_modelTier() {
	trace, err := sophon.GenerateTrace(sophon.OpenImagesProfile(0), 2024)
	if err != nil {
		panic(err)
	}
	env := sophon.Env{
		Bandwidth:       sophon.Mbps(500),
		ComputeCores:    48,
		StorageCores:    48,
		StorageSlowdown: 1,
		GPU:             sophon.AlexNet,
	}
	decision, err := sophon.Decide(trace, env)
	if err != nil {
		panic(err)
	}
	// AllPolicies is in the paper's figure order: No-Off first.
	noOff, _, err := sophon.SimulatePolicy(sophon.AllPolicies()[0], trace, env)
	if err != nil {
		panic(err)
	}
	withPlan, _, err := sophon.SimulatePolicy(sophon.NewSophonPolicy(), trace, env)
	if err != nil {
		panic(err)
	}
	fmt.Printf("activated: %v\n", decision.Activated)
	fmt.Printf("traffic: %.2f GB -> %.2f GB\n",
		float64(noOff.TrafficBytes)/1e9, float64(withPlan.TrafficBytes)/1e9)
	fmt.Printf("traffic reduction: %.1fx\n",
		float64(noOff.TrafficBytes)/float64(withPlan.TrafficBytes))
	// Output:
	// activated: true
	// traffic: 12.09 GB -> 5.57 GB
	// traffic reduction: 2.2x
}
