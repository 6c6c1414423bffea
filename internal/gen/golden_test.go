package gen

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
)

// graphDigest folds everything a workload or the scheduler can observe of a
// graph — n, m, every Children list in order, every Parents list in order,
// TopoOrder — into one FNV-1a value. List lengths are folded in too, so
// moving an edge between neighbouring lists changes the digest.
func graphDigest(d *dag.DAG) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	putList := func(s []dag.NodeID) {
		put(len(s))
		for _, v := range s {
			put(int(v))
		}
	}
	put(d.NumNodes())
	put(d.NumEdges())
	for v := 0; v < d.NumNodes(); v++ {
		putList(d.Children(dag.NodeID(v)))
	}
	for v := 0; v < d.NumNodes(); v++ {
		putList(d.Parents(dag.NodeID(v)))
	}
	putList(d.TopoOrder())
	return h.Sum64()
}

// TestGoldenGraphDigests pins that a spec denotes the graph it always has:
// same edges, same order within every adjacency list, same topological
// order. The digests were recorded with the slice-of-slices DAG that
// preceded the CSR layout; a stored run replays identically only while they
// hold, so a mismatch means a generator or the freeze changed which graph a
// spec means — which needs a spec version, not a new golden value.
func TestGoldenGraphDigests(t *testing.T) {
	dynamic := func(stages, width int, p float64, seed int64) func() (*dag.DAG, error) {
		return func() (*dag.DAG, error) {
			d, err := NewDynamic(Config{Shape: Dynamic, Stages: stages, Width: width, EdgeProb: p, Seed: seed}, DynLimits{})
			if err != nil {
				return nil, err
			}
			expandAll(t, d, func([]dag.NodeID) {})
			return d.FinalDAG()
		}
	}
	static := func(cfg Config) func() (*dag.DAG, error) {
		return func() (*dag.DAG, error) { return Generate(cfg) }
	}
	cases := []struct {
		name  string
		build func() (*dag.DAG, error)
		want  uint64
	}{
		{"random n=2 p=0", static(Config{Shape: Random, Nodes: 2, EdgeProb: 0, Seed: 1}), 0x4fae035259e7cb64},
		{"random n=64 p=0 (fill-in only)", static(Config{Shape: Random, Nodes: 64, EdgeProb: 0, Seed: 5}), 0x60afb77635dbd918},
		{"random n=48 p=1 (dense)", static(Config{Shape: Random, Nodes: 48, EdgeProb: 1, Seed: 9}), 0x24907cbfca29cbc1},
		{"random n=500 p=0.001 (fill-in heavy)", static(Config{Shape: Random, Nodes: 500, EdgeProb: 0.001, Seed: 2}), 0xfe67ef0092d45360},
		{"random n=300 p=0.004 (fill-in heavy)", static(Config{Shape: Random, Nodes: 300, EdgeProb: 0.004, Seed: 77}), 0x33f6e46b6b1f9eef},
		{"random n=200 p=0.02 (service mix)", static(Config{Shape: Random, Nodes: 200, EdgeProb: 0.02, Seed: 13}), 0x8c00da6a2f7b52e3},
		{"random n=2000 p=0.01 (engine_fine)", static(Config{Shape: Random, Nodes: 2000, EdgeProb: 0.01, Seed: 424242}), 0xea6432ce9edc90c1},
		{"random n=100 p=0.3 negative seed", static(Config{Shape: Random, Nodes: 100, EdgeProb: 0.3, Seed: -7}), 0x9a9b4430d9dbf78a},
		{"pipeline 1x1", static(Config{Shape: Pipeline, Stages: 1, Width: 1}), 0xba5ff98028396666},
		{"pipeline 1x5 (stages 1)", static(Config{Shape: Pipeline, Stages: 1, Width: 5}), 0xb00e00c98923dbee},
		{"pipeline 40x1 (width 1)", static(Config{Shape: Pipeline, Stages: 40, Width: 1}), 0x19efac549cf90764},
		{"pipeline 7x2", static(Config{Shape: Pipeline, Stages: 7, Width: 2}), 0x2b744efbc8e2e079},
		{"pipeline 50x4 (service mix)", static(Config{Shape: Pipeline, Stages: 50, Width: 4}), 0xf5a2e21ed1a3e7e1},
		{"pipeline 2000x8 (engine_fine)", static(Config{Shape: Pipeline, Stages: 2000, Width: 8}), 0xeda85862466c1047},
		{"chain n=1", static(Config{Shape: Chain, Nodes: 1}), 0xa6a1ff86dbc67665},
		{"chain n=2", static(Config{Shape: Chain, Nodes: 2}), 0x4fae035259e7cb64},
		{"chain n=100000 (engine_fine)", static(Config{Shape: Chain, Nodes: 100000}), 0x07c145b92b5202cd},
		// Edges deliberately out of ID order, with an isolated node and two
		// sources, so list order and Kahn's tie-breaking both show.
		{"explicit", static(Config{Shape: Explicit, Nodes: 9, Edges: []Edge{
			{5, 7}, {0, 3}, {2, 3}, {0, 1}, {3, 7}, {1, 7}, {2, 5}, {0, 7}, {3, 5}, {7, 8}, {1, 2},
		}}), 0x942d565f43d7e5eb},
		{"dynamic 12x3 p=0.2 seed 1", dynamic(12, 3, 0.2, 1), 0x29b011992d090cb7},
		{"dynamic 6x3 p=0.4 seed 99", dynamic(6, 3, 0.4, 99), 0xf1f6c514cedc051c},
		{"dynamic 5x4 p=0.5 seed 3", dynamic(5, 4, 0.5, 3), 0x5bfa0cb7fe6d0bca},
		{"dynamic 8x2 p=0 seed 21", dynamic(8, 2, 0, 21), 0x5cd9b434bf789318},
	}
	for _, tc := range cases {
		d, err := tc.build()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got := graphDigest(d); got != tc.want {
			t.Errorf("%s: digest %#016x (n=%d m=%d), want %#016x", tc.name, got, d.NumNodes(), d.NumEdges(), tc.want)
		}
	}
}
