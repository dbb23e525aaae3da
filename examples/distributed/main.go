// Distributed: the control plane as it is actually deployed — agents on TOR
// switches and controllers as separate processes exchanging messages over
// the network (paper §IV-B). An MSB-level controller aggregates power
// exclusively through two leaf controllers; when an open transition hits
// both rows, the MSB controller discovers the charging sequence through the
// polling chain (agent → leaf → upper), plans Algorithm 1 at the root, and
// its overrides propagate back down the same path.
//
// Run with:
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"time"

	"coordcharge"
)

func main() {
	engine := coordcharge.NewEngine()
	busFabric := coordcharge.NewBus(engine, coordcharge.ConstantLatency(25*time.Millisecond))

	msb := coordcharge.NewNode("msb", coordcharge.LevelMSB, 200*coordcharge.Kilowatt)
	var racks []*coordcharge.Rack
	var leaves []*coordcharge.AsyncLeaf
	cfg := coordcharge.DefaultPlannerConfig()
	for li := 0; li < 2; li++ {
		rpp := msb.AddChild(coordcharge.NewNode(fmt.Sprintf("rpp%d", li), coordcharge.LevelRPP, coordcharge.DefaultRPPLimit))
		var rowRacks []*coordcharge.Rack
		for i := 0; i < 4; i++ {
			r := coordcharge.NewRack(fmt.Sprintf("row%d-rack%d", li, i),
				coordcharge.Priority(1+i%3), coordcharge.VariableCharger{}, coordcharge.Fig5Surface())
			r.SetDemand(9 * coordcharge.Kilowatt)
			rpp.AttachLoad(r)
			coordcharge.NewAsyncAgent(busFabric, engine, r, 0)
			rowRacks = append(rowRacks, r)
			racks = append(racks, r)
		}
		// Leaves monitor and execute; planning happens at the MSB root.
		leaves = append(leaves, coordcharge.NewAsyncLeaf(busFabric, engine, rpp, rowRacks,
			coordcharge.ModePriorityAware, cfg, false, 3*time.Second))
	}
	upper := coordcharge.NewAsyncUpper(busFabric, engine, msb, leaves,
		coordcharge.ModePriorityAware, cfg, 6*time.Second)

	step := time.Second
	drive := func(from, to time.Duration) {
		for now := from; now <= to; now += step {
			for _, r := range racks {
				r.Step(now, step)
			}
			engine.Run(now)
		}
	}

	drive(step, 30*time.Second)
	fmt.Println("t=30s  open transition: both rows lose input power")
	msb.Deenergize(30 * time.Second)
	drive(31*time.Second, 36*time.Second)
	msb.Reenergize(36 * time.Second)
	fmt.Println("t=36s  power restored; chargers start at their local defaults")

	for _, mark := range []time.Duration{39 * time.Second, 48 * time.Second, 60 * time.Second} {
		drive(mark-2*time.Second, mark)
		fmt.Printf("t=%-4v charging currents:", mark)
		for _, r := range racks {
			fmt.Printf(" %s=%v", r.Name(), r.Pack().Setpoint())
		}
		fmt.Println()
	}

	fmt.Printf("\nmessages delivered over the bus: %d (dropped %d)\n",
		busFabric.Delivered(), busFabric.Dropped())
	fmt.Printf("MSB controller: plans=%d overrides=%d\n",
		upper.Metrics().PlansComputed, upper.Metrics().OverridesIssued)
	fmt.Println("\nThe MSB-level plan (P1 at SLA current, P2/P3 at 1 A) reached every rack")
	fmt.Println("through leaf controllers — no controller ever touched a rack directly.")
}
