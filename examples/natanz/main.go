// Natanz: the Figure 1 scenario in depth, narrated step by step — the
// three compromise levels (Windows, Step 7, PLC), the engineering-plane
// man-in-the-middle, and the physics of the 1410/2/1064 Hz attack, with
// the operator's view shown against ground truth at each checkpoint.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/plc"
	"repro/internal/sim"
)

func main() {
	w, err := core.NewWorld(core.WorldConfig{Seed: 2010})
	if err != nil {
		log.Fatal(err)
	}
	sc, err := core.BuildNatanz(w, core.NatanzOptions{OfficeHosts: 3, MachinesPerDrive: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer sc.Plant.Stop()

	snapshot := func(label string) {
		direct := plc.NewDirectLib(sc.Plant.PLC)
		real0, _ := direct.ReadFrequency(0)
		sc.Plant.Operator.Poll(len(sc.Plant.PLC.Bus().Drives()))
		hmi := sc.Plant.Operator.Readings
		fmt.Printf("%-28s real drive0 %7.1f Hz | HMI shows %v | destroyed %d | safety tripped %v\n",
			label, real0, roundAll(hmi), sc.Plant.DestroyedCount(), sc.Plant.Safety.Tripped)
	}

	fmt.Println("=== Level 0: steady-state enrichment ===")
	w.K.RunFor(time.Hour)
	snapshot("t+1h (clean)")

	fmt.Println("\n=== Level 1: compromising Windows ===")
	if err := sc.Deliver(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engineer workstation infected: %v (via crafted LNK, %s)\n",
		sc.Stuxnet.Infected("ENG-STATION"), "MS10-046")
	fmt.Printf("rootkit drivers loaded: %d (signed by stolen vendor certificates)\n", sc.Stuxnet.Stats.RootkitLoads)

	fmt.Println("\n=== Level 2: compromising Step 7 ===")
	fmt.Printf("projects infected: %d\n", sc.Stuxnet.Stats.ProjectsInfected)
	fmt.Printf("s7otbxdx.dll swapped on disk: %v (genuine renamed to s7otbxsx.dll)\n",
		sc.Engineer.FS.Exists(`C:\Program Files\Siemens\Step7\s7otbxsx.dll`))
	fmt.Printf("injected PLC blocks visible to Step 7: %v (rootkit hides them)\n",
		containsBlock(sc.Step7.ListBlocks(), 1001))

	fmt.Println("\n=== Level 3: compromising the PLC ===")
	fmt.Printf("payload armed: %v (Profibus CP + %s/%s drives matched)\n",
		sc.Stuxnet.Stats.PayloadArmed, plc.VendorFinnish, plc.VendorIranian)

	// Observe phase (~25 min), then the high excursion.
	w.K.RunFor(30 * time.Minute)
	snapshot("t+~1.6h (observe phase)")
	w.K.RunFor(15 * time.Minute)
	snapshot("t+~1.8h (1410 Hz attack)")
	w.K.RunFor(30 * time.Minute)
	snapshot("t+~2.3h (post high phase)")
	w.K.RunFor(3 * time.Hour)
	snapshot("t+~5h (wave complete)")

	fmt.Println("\n=== Outcome ===")
	fmt.Printf("attack waves: %d\n", sc.Stuxnet.Stats.AttacksLaunched)
	fmt.Printf("centrifuges destroyed: %d of %d\n", sc.Plant.DestroyedCount(), len(sc.Plant.Centrifuges()))

	fmt.Println("\n=== PLC trace (last events) ===")
	for i, e := range w.K.Trace().Filter(sim.CatPLC) {
		if i >= 12 {
			break
		}
		fmt.Printf("  %s [%s] %s: %s\n", e.At.Format(time.RFC3339), e.Cat, e.Actor, e.Msg)
	}
}

func roundAll(in []float64) []int {
	out := make([]int, len(in))
	for i, v := range in {
		out[i] = int(v + 0.5)
	}
	return out
}

func containsBlock(ids []int, id int) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}
