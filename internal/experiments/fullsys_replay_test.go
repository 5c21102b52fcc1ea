package experiments

import (
	"reflect"
	"testing"

	"lva/internal/fullsys"
	"lva/internal/workloads"
)

// TestFullsysReplayMatchesSingleRuns checks the phase-2 fan-out on every
// kernel's recorded precise stream: one decode pass driving the Figure
// 10/11 configurations (precise, LVA at degrees 0..16) plus an LVA
// configuration with the low-power training lane must give each of them
// exactly the result of its own single-sim replay — every counter, the
// per-core breakdown and the energy tally.
func TestFullsysReplayMatchesSingleRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("replays all seven recordings through seven configurations twice")
	}
	if raceEnabled {
		t.Skip("fourteen phase-2 replays per kernel exceed the race budget; TestFigureGoldenHashes exercises the fan-out under race")
	}
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			st := ensureStream(streamPrecise, w, DefaultSeed)
			if st.path == "" {
				t.Fatal("no precise recording available")
			}
			cfgs := fullsysConfigs(w)
			lane := cfgs[len(cfgs)-1]
			lane.TrainingLane = fullsys.DefaultTrainingLane()
			cfgs = append(cfgs, lane)
			all, err := streamFullsys(cfgs, st)
			if err != nil {
				t.Fatalf("fan-out replay: %v", err)
			}
			for i := range cfgs {
				alone, err := streamFullsys(cfgs[i:i+1], st)
				if err != nil {
					t.Fatalf("single replay: %v", err)
				}
				if !reflect.DeepEqual(all[i], alone[0]) {
					t.Errorf("config %d: fan-out result differs from its single-sim replay\nfan-out %+v\nalone   %+v",
						i, all[i], alone[0])
				}
			}
		})
	}
}
