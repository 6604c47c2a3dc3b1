package scenario

import (
	"encoding/json"
	"reflect"
	"testing"

	"tegrecon/internal/sim"
)

// FuzzMatrixNormalize throws JSON specs at the matrix normalizer. For
// any input Normalize must not panic; a spec it accepts must normalize
// to itself on a second pass, and Counts must size it within the axis
// caps.
func FuzzMatrixNormalize(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"cycles":[{"name":"nedc"}]}`,
		`{"cycles":[{"name":"NEDC"},{"name":"nedc"}]}`,
		// The shape of the repository benchmark's sweep matrix.
		`{"name":"perfbench-sweep","seed":12345,"cycles":[` +
			`{"synth":{"profile":"urban","duration_s":20,"seed":1}},` +
			`{"synth":{"profile":"highway","duration_s":20,"seed":2}}],` +
			`"ambients":[{"ambient_c":17},{"ambient_c":32,"coolant_offset_c":-5}],` +
			`"flows":[{"paths":1},{"paths":3,"maldistribution":0.3}],` +
			`"faults":[{},{"storm":{"fraction":0.05}}],` +
			`"array_sizes":[40,100,400]}`,
		`{"max_duration_s":30,"cycles":[{"name":"nedc"},{"synth":{"profile":"urban","seed":3,"duration_s":30}}],` +
			`"schemes":["INOR","DNOR"],"ambients":[{"ambient_c":10},{"ambient_c":30,"coolant_offset_c":5}],` +
			`"flows":[{"paths":1},{"paths":2,"maldistribution":0.4}],"faults":[{},{"storm":{"count":2}}],"array_sizes":[20,40]}`,
		`{"cycles":[{"csv":"time_s,speed_kph\n0,0\n10,30\n20,50\n30,0\n"}],` +
			`"faults":[{"events":[{"time_s":10,"module":2,"to":"OPEN"},{"time_s":5,"module":1,"to":"short"}]}],` +
			`"schemes":["inor"],"array_sizes":[10]}`,
		`{"cycles":[{"name":"nedc"}],"ambients":[{"from_c":0,"to_c":40,"step_c":5,"coolant_offset_c":2}]}`,
		`{"cycles":[{"name":"nedc"}],"ambients":[{"from_c":40,"to_c":0,"step_c":-10}]}`,
		`{"version":2,"cycles":[{"name":"nedc"}]}`,
		`{"tick_s":-1,"cycles":[{"name":"nedc"}]}`,
		`{"sensor_noise_c":0,"horizon_ticks":12,"cycles":[{"name":"wltc"}]}`,
		`{"cycles":[{"name":"nedc","csv":"x"}]}`,
		`{"cycles":[{"name":"nedc"}],"array_sizes":[5000,1]}`,
		`{"cycles":[{"name":"nedc"}],"flows":[{"paths":64,"maldistribution":0.99}]}`,
		`{"cycles":[{"name":"nedc"}],"faults":[{"storm":{"count":1,"fraction":0.5}}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Matrix
		if err := json.Unmarshal(data, &m); err != nil {
			return
		}
		n, err := m.Normalize()
		if err != nil {
			return
		}
		n2, err := n.Normalize()
		if err != nil {
			t.Fatalf("normalized spec rejected on a second pass: %v", err)
		}
		if !reflect.DeepEqual(n, n2) {
			t.Fatalf("Normalize is not idempotent:\n%+v\n%+v", n, n2)
		}
		if len(n.Cycles) > maxCycleAxis || len(n.Schemes) > len(sim.SchemeNames()) ||
			len(n.Ambients) > maxAmbientAxis || len(n.Flows) > maxFlowAxis ||
			len(n.Faults) > maxFaultAxis || len(n.ArraySizes) > maxSizeAxis {
			t.Fatalf("normalized axes exceed their caps: %d cycles, %d schemes, %d ambients, %d flows, %d faults, %d sizes",
				len(n.Cycles), len(n.Schemes), len(n.Ambients), len(n.Flows), len(n.Faults), len(n.ArraySizes))
		}
		c, err := m.Counts()
		if err != nil {
			t.Fatalf("accepted spec cannot be counted: %v", err)
		}
		cells := len(n.Cycles) * len(n.Schemes) * len(n.Ambients) * len(n.Flows) * len(n.Faults) * len(n.ArraySizes)
		if c.Cells != cells {
			t.Fatalf("Counts reports %d cells, axes multiply to %d", c.Cells, cells)
		}
		if c.Jobs < c.Cells || c.Jobs > c.Cells*maxFlowPaths {
			t.Fatalf("%d jobs for %d cells, outside [cells, cells×%d]", c.Jobs, c.Cells, maxFlowPaths)
		}
		if c.MaxModules < 1 || c.MaxModules > maxArraySize {
			t.Fatalf("largest array %d outside [1, %d]", c.MaxModules, maxArraySize)
		}
		if c.MaxJobTicks < 1 || c.Ticks < c.MaxJobTicks {
			t.Fatalf("tick volume %d with a largest job of %d ticks", c.Ticks, c.MaxJobTicks)
		}
	})
}
