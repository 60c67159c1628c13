package graph

// BFS visits all vertices reachable from src in breadth-first order and
// returns the visit order. visit, if non-nil, is called with (vertex,
// depth) on first discovery.
func (g *Graph) BFS(src int, visit func(v, depth int)) []int {
	seen := make([]bool, g.n)
	order := make([]int, 0, g.n)
	queue := []int{src}
	depth := make([]int, g.n)
	seen[src] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		if visit != nil {
			visit(v, depth[v])
		}
		for _, e := range g.adj[v] {
			if !seen[e.To] {
				seen[e.To] = true
				depth[e.To] = depth[v] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return order
}

// Components returns the connected components as vertex lists, in order
// of their smallest vertex.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for v := 0; v < g.n; v++ {
		if seen[v] {
			continue
		}
		var comp []int
		stack := []int{v}
		seen[v] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, e := range g.adj[u] {
				if !seen[e.To] {
					seen[e.To] = true
					stack = append(stack, e.To)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// Connected reports whether the graph is connected (true for n ≤ 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	return len(g.BFS(0, nil)) == g.n
}
