package main

// committed holds each workload's simulated outcome for defaultSeed. The
// simulation is deterministic, so these change only when the program's
// simulated behaviour changes — which the repository treats as a defect
// unless a change sets out to alter results, and then updates them here.
var committed = map[string]digest{
	"rpc-produce": {Ops: 69120, SimEvents: 600316, P50ns: 476411, P99ns: 484394},
	"rdma-fanout": {Ops: 9860, SimEvents: 637677, P50ns: 129147, P99ns: 508432},
	"iot-stream":  {Ops: 30000, SimEvents: 883150, P50ns: 237331, P99ns: 15408990},
}
