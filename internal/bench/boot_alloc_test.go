package bench

import (
	"runtime"
	"testing"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/multikernel"
	"repro/internal/sim"
	"repro/internal/smp"
	"repro/internal/stats"
)

// bootAllocBudget bounds the heap one boot may allocate. Kernel services,
// schedulers and the fabric cost tens of KB; a boot that materialises its
// physical memory (8 bytes per frame: 4 MiB at these sizes) cannot fit.
const bootAllocBudget = 256 << 10

// TestBootAllocationIsIndependentOfMemorySize boots each OS flavour at the
// sizes the experiments use and pins the heap the boot call allocates under
// bootAllocBudget: frame partitions hand frames out on demand, so booting
// must not touch (or allocate per frame of) physical memory.
func TestBootAllocationIsIndependentOfMemorySize(t *testing.T) {
	boots := []struct {
		name string
		boot func(e sim.Engine, machine *hw.Machine) error
	}{
		{"kernel.Boot", func(e sim.Engine, machine *hw.Machine) error {
			cc := kernel.DefaultClusterConfig(machine)
			cc.Kernels = popcornKernels
			cc.FramesPerKernel = framesPerKernel
			_, err := kernel.Boot(e, machine, cc, stats.NewRegistry())
			return err
		}},
		{"smp.BootOn", func(e sim.Engine, machine *hw.Machine) error {
			_, err := smp.BootOn(e, machine, framesPerNode)
			return err
		}},
		{"multikernel.BootOn", func(e sim.Engine, machine *hw.Machine) error {
			_, err := multikernel.BootOn(e, machine, popcornKernels, framesPerKernel)
			return err
		}},
	}
	for _, b := range boots {
		t.Run(b.name, func(t *testing.T) {
			machine, err := hw.NewMachine(testbed(), hw.DefaultCostModel())
			if err != nil {
				t.Fatal(err)
			}
			e := sim.NewEngine()
			defer e.Close()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = b.boot(e, machine)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("boot: %v", err)
			}
			got := after.TotalAlloc - before.TotalAlloc
			if got > bootAllocBudget {
				t.Fatalf("%s allocated %d KB, want <= %d KB", b.name, got>>10, bootAllocBudget>>10)
			}
			t.Logf("%s allocated %d KB", b.name, got>>10)
		})
	}
}
