package emd

// The general transportation-simplex solver and DistanceGeneral: the
// oracle emd_test.go checks the 1-D closed form against. Nothing outside
// this package's tests calls it, so it is not part of the build.

import (
	"errors"
	"fmt"
	"math"
)

// balanceTol is the allowed relative imbalance between total supply and
// total demand in Transport.
const balanceTol = 1e-9

// weightEps is the tolerance below which residual mass is considered zero.
const weightEps = 1e-12

// reducedCostTol is the optimality tolerance: a cell enters the basis only
// if its reduced cost is below -reducedCostTol.
const reducedCostTol = 1e-12

// ErrUnbalanced is returned by Transport when total supply and total
// demand differ.
var ErrUnbalanced = errors.New("emd: total supply and demand differ")

// Transport solves the balanced transportation problem
//
//	minimize   Σᵢⱼ cost[i][j]·flow[i][j]
//	subject to Σⱼ flow[i][j] = supply[i]   for every supplier i
//	           Σᵢ flow[i][j] = demand[j]   for every consumer j
//	           flow[i][j] ≥ 0
//
// using the transportation simplex: a northwest-corner initial basic
// feasible solution improved by MODI (u-v potential) iterations, with
// Bland's rule for anti-cycling under degeneracy.
//
// supply and demand must be non-negative and have equal positive totals
// (within a small relative tolerance). cost must be a len(supply) ×
// len(demand) matrix of finite values. The returned flow matrix attains
// the returned optimal total cost.
func Transport(supply, demand []float64, cost [][]float64) ([][]float64, float64, error) {
	m, n := len(supply), len(demand)
	if m == 0 || n == 0 {
		return nil, 0, fmt.Errorf("emd: transport needs suppliers and consumers, got %d×%d", m, n)
	}
	if len(cost) != m {
		return nil, 0, fmt.Errorf("emd: cost has %d rows, want %d", len(cost), m)
	}
	var totalSupply, totalDemand float64
	for i, s := range supply {
		if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, 0, fmt.Errorf("emd: invalid supply %v at %d", s, i)
		}
		totalSupply += s
	}
	for j, d := range demand {
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return nil, 0, fmt.Errorf("emd: invalid demand %v at %d", d, j)
		}
		totalDemand += d
	}
	for i := range cost {
		if len(cost[i]) != n {
			return nil, 0, fmt.Errorf("emd: cost row %d has %d entries, want %d", i, len(cost[i]), n)
		}
		for j, c := range cost[i] {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, 0, fmt.Errorf("emd: invalid cost %v at (%d,%d)", c, i, j)
			}
		}
	}
	scale := math.Max(totalSupply, totalDemand)
	if scale <= 0 {
		return nil, 0, ErrEmptySignature
	}
	if math.Abs(totalSupply-totalDemand) > balanceTol*scale {
		return nil, 0, fmt.Errorf("%w: supply %v vs demand %v", ErrUnbalanced, totalSupply, totalDemand)
	}

	t := &tableau{m: m, n: n, cost: cost}
	t.northwestCorner(supply, demand)
	if err := t.optimize(); err != nil {
		return nil, 0, err
	}
	return t.flow, t.totalCost(), nil
}

// tableau holds the transportation-simplex state: the allocation matrix
// and the set of basic cells, which always form a spanning tree of the
// bipartite supplier/consumer graph.
type tableau struct {
	m, n  int
	cost  [][]float64
	flow  [][]float64
	basic [][]bool
}

// northwestCorner builds the initial basic feasible solution. When a row
// and a column are exhausted simultaneously (degeneracy), only the row
// advances and the next cell enters the basis with a zero allocation,
// preserving the invariant of exactly m+n−1 basic cells.
func (t *tableau) northwestCorner(supply, demand []float64) {
	t.flow = make([][]float64, t.m)
	t.basic = make([][]bool, t.m)
	for i := range t.flow {
		t.flow[i] = make([]float64, t.n)
		t.basic[i] = make([]bool, t.n)
	}
	remS := make([]float64, t.m)
	copy(remS, supply)
	remD := make([]float64, t.n)
	copy(remD, demand)

	i, j := 0, 0
	for i < t.m && j < t.n {
		alloc := math.Min(remS[i], remD[j])
		t.flow[i][j] = alloc
		t.basic[i][j] = true
		remS[i] -= alloc
		remD[j] -= alloc
		switch {
		case i == t.m-1 && j == t.n-1:
			i++
			j++
		case remS[i] <= weightEps && i < t.m-1:
			i++
		default:
			j++
		}
	}
}

// optimize runs MODI improvement iterations until no cell has a negative
// reduced cost. Bland's rule (first eligible cell in row-major order)
// prevents cycling on degenerate tableaux.
func (t *tableau) optimize() error {
	u := make([]float64, t.m)
	v := make([]float64, t.n)
	// The basis has m+n−1 cells; each pivot swaps one in and one out, so a
	// generous polynomial cap catches implementation bugs without ever
	// tripping on legitimate inputs.
	maxIter := 50 * (t.m + t.n) * (t.m + t.n)
	for iter := 0; iter < maxIter; iter++ {
		if err := t.potentials(u, v); err != nil {
			return err
		}
		ei, ej, found := t.enteringCell(u, v)
		if !found {
			return nil // optimal
		}
		cycle, err := t.findCycle(ei, ej)
		if err != nil {
			return err
		}
		t.pivot(cycle)
	}
	return fmt.Errorf("emd: simplex failed to converge in %d iterations", maxIter)
}

// potentials solves u[i] + v[j] = cost[i][j] over the basic cells by
// traversing the basis spanning tree from u[0] = 0.
func (t *tableau) potentials(u, v []float64) error {
	const unset = math.MaxFloat64
	for i := range u {
		u[i] = unset
	}
	for j := range v {
		v[j] = unset
	}
	u[0] = 0
	// Worklist of resolved nodes: rows are 0..m-1, columns m..m+n-1.
	queue := make([]int, 0, t.m+t.n)
	queue = append(queue, 0)
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		if node < t.m {
			i := node
			for j := 0; j < t.n; j++ {
				if t.basic[i][j] && v[j] == unset {
					v[j] = t.cost[i][j] - u[i]
					queue = append(queue, t.m+j)
				}
			}
		} else {
			j := node - t.m
			for i := 0; i < t.m; i++ {
				if t.basic[i][j] && u[i] == unset {
					u[i] = t.cost[i][j] - v[j]
					queue = append(queue, i)
				}
			}
		}
	}
	for i, x := range u {
		if x == unset {
			return fmt.Errorf("emd: basis not spanning: row %d unreached", i)
		}
	}
	for j, x := range v {
		if x == unset {
			return fmt.Errorf("emd: basis not spanning: column %d unreached", j)
		}
	}
	return nil
}

// enteringCell returns the first non-basic cell (row-major, Bland's rule)
// whose reduced cost is negative.
func (t *tableau) enteringCell(u, v []float64) (int, int, bool) {
	for i := 0; i < t.m; i++ {
		for j := 0; j < t.n; j++ {
			if t.basic[i][j] {
				continue
			}
			if t.cost[i][j]-u[i]-v[j] < -reducedCostTol {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}

// cell identifies one tableau position.
type cell struct{ i, j int }

// findCycle returns the unique alternating cycle formed by adding the
// entering cell (ei, ej) to the basis tree. The cycle starts at the
// entering cell and alternates row/column moves; even indices gain flow
// and odd indices lose it.
func (t *tableau) findCycle(ei, ej int) ([]cell, error) {
	// Find the tree path from row node ei to column node ej via DFS over
	// basic cells; prepending the entering cell closes the cycle.
	type frame struct {
		node int // row: 0..m-1, column: m..m+n-1
		path []cell
	}
	visited := make([]bool, t.m+t.n)
	stack := []frame{{node: ei}}
	visited[ei] = true
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.node == t.m+ej {
			return append([]cell{{ei, ej}}, f.path...), nil
		}
		if f.node < t.m {
			i := f.node
			for j := 0; j < t.n; j++ {
				if t.basic[i][j] && !visited[t.m+j] {
					visited[t.m+j] = true
					path := make([]cell, len(f.path), len(f.path)+1)
					copy(path, f.path)
					stack = append(stack, frame{node: t.m + j, path: append(path, cell{i, j})})
				}
			}
		} else {
			j := f.node - t.m
			for i := 0; i < t.m; i++ {
				if t.basic[i][j] && !visited[i] {
					visited[i] = true
					path := make([]cell, len(f.path), len(f.path)+1)
					copy(path, f.path)
					stack = append(stack, frame{node: i, path: append(path, cell{i, j})})
				}
			}
		}
	}
	return nil, fmt.Errorf("emd: no cycle for entering cell (%d,%d): basis is not a tree", ei, ej)
}

// pivot shifts θ = min flow over the cycle's losing cells around the
// cycle, moving the entering cell into the basis and the first saturated
// losing cell out.
func (t *tableau) pivot(cycle []cell) {
	theta := math.Inf(1)
	leave := -1
	for k := 1; k < len(cycle); k += 2 {
		c := cycle[k]
		if t.flow[c.i][c.j] < theta {
			theta = t.flow[c.i][c.j]
			leave = k
		}
	}
	for k, c := range cycle {
		if k%2 == 0 {
			t.flow[c.i][c.j] += theta
		} else {
			t.flow[c.i][c.j] -= theta
			if t.flow[c.i][c.j] < weightEps {
				t.flow[c.i][c.j] = math.Max(t.flow[c.i][c.j], 0)
			}
		}
	}
	enter := cycle[0]
	t.basic[enter.i][enter.j] = true
	out := cycle[leave]
	t.basic[out.i][out.j] = false
	t.flow[out.i][out.j] = 0
}

func (t *tableau) totalCost() float64 {
	var total float64
	for i := 0; i < t.m; i++ {
		for j := 0; j < t.n; j++ {
			if f := t.flow[i][j]; f > 0 {
				total += f * t.cost[i][j]
			}
		}
	}
	return total
}

// DistanceGeneral computes the EMD between two signatures under an
// arbitrary ground-distance function by solving the transportation
// problem directly. Weights are normalized to unit mass. It is
// asymptotically slower than Distance1D but works for any ground metric.
func DistanceGeneral(pos1, w1, pos2, w2 []float64, ground func(a, b float64) float64) (float64, error) {
	s1, err := newSignature(pos1, w1)
	if err != nil {
		return 0, fmt.Errorf("emd: signature 1: %w", err)
	}
	s2, err := newSignature(pos2, w2)
	if err != nil {
		return 0, fmt.Errorf("emd: signature 2: %w", err)
	}
	cost := make([][]float64, len(s1.pos))
	for i, p := range s1.pos {
		cost[i] = make([]float64, len(s2.pos))
		for j, q := range s2.pos {
			cost[i][j] = ground(p, q)
		}
	}
	_, total, err := Transport(s1.w, s2.w, cost)
	if err != nil {
		return 0, err
	}
	return total, nil
}
