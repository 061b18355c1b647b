package chaos

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// profiles are the fault mixes in the matrix. Probabilities are per
// connection operation; the retry budget must ride out several injected
// faults per RPC.
var profiles = []struct {
	name      string
	faults    faultinject.NetFaultConfig
	checksums bool
}{
	{name: "drops", faults: faultinject.NetFaultConfig{DropProb: 0.08}},
	{name: "partial-writes", faults: faultinject.NetFaultConfig{PartialProb: 0.06, DropProb: 0.02}},
	{name: "corruption", faults: faultinject.NetFaultConfig{CorruptProb: 0.05}, checksums: true},
	{name: "partitions", faults: faultinject.NetFaultConfig{PartitionProb: 0.02, PartitionOps: 15}},
	{name: "everything", faults: faultinject.NetFaultConfig{
		DropProb: 0.03, StallProb: 0.02, StallDur: 200 * time.Microsecond,
		CorruptProb: 0.02, PartialProb: 0.02,
		PartitionProb: 0.01, PartitionOps: 10,
	}, checksums: true},
}

// seedsPerProfile * len(profiles) = 200 randomized fault schedules, the
// acceptance floor. Each seed fixes both the op script and fault schedule,
// so a failure replays exactly from the seed echoed in its message.
const seedsPerProfile = 40

func TestChaosMatrixConverges(t *testing.T) {
	n := seedsPerProfile
	if testing.Short() {
		n = 5
	}
	for _, prof := range profiles {
		prof := prof
		t.Run(prof.name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(n); seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					t.Parallel()
					res, err := Run(Config{
						Seed:      seed,
						Ops:       60,
						Faults:    prof.faults,
						Checksums: prof.checksums,
					})
					if err != nil {
						t.Fatalf("chaos run failed (profile=%s seed=%d): %v", prof.name, seed, err)
					}
					if !res.Converged {
						t.Fatalf("DIVERGED (profile=%s seed=%d): %s\nfaults: %+v\nsync: %+v",
							prof.name, seed, res.Mismatch, res.Faults, res.Sync)
					}
					if res.DuplicateApplies != 0 {
						t.Fatalf("duplicate applies (profile=%s seed=%d): %d",
							prof.name, seed, res.DuplicateApplies)
					}
				})
			}
		})
	}
}

// TestChaosFaultFree sanity-checks the harness itself: with no faults the
// two stacks must converge and no retries may be metered.
func TestChaosFaultFree(t *testing.T) {
	res, err := Run(Config{Seed: 42, Ops: 80})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("fault-free run diverged: %s", res.Mismatch)
	}
	if res.Faults.Total() != 0 {
		t.Fatalf("faults injected with a zero profile: %+v", res.Faults)
	}
}
