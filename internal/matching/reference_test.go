package matching

// referenceMaxWeightMatching is the closure-and-make blossom that
// Workspace replaced, kept verbatim (a line-by-line port of networkx
// max_weight_matching) as the frozen reference the differential and
// fuzz tests compare mate arrays against. It must not be edited: its
// tie-breaking is what every recorded table was decoded with.
func referenceMaxWeightMatching(nvertex int, edges []Edge, maxCardinality bool) []int {
	if nvertex == 0 || len(edges) == 0 {
		out := make([]int, nvertex)
		for i := range out {
			out[i] = -1
		}
		return out
	}
	nedge := len(edges)
	var maxweight int64
	for _, e := range edges {
		if e.I < 0 || e.I >= nvertex || e.J < 0 || e.J >= nvertex || e.I == e.J {
			panic("matching: edge endpoints out of range or self loop")
		}
		if e.W > maxweight {
			maxweight = e.W
		}
	}

	// endpoint[p] is the vertex at endpoint p; edge k owns endpoints
	// 2k (its I side) and 2k+1 (its J side).
	endpoint := make([]int, 2*nedge)
	for k, e := range edges {
		endpoint[2*k] = e.I
		endpoint[2*k+1] = e.J
	}
	// neighbend[v] lists the remote endpoints of edges incident to v.
	neighbend := make([][]int, nvertex)
	for k, e := range edges {
		neighbend[e.I] = append(neighbend[e.I], 2*k+1)
		neighbend[e.J] = append(neighbend[e.J], 2*k)
	}

	// mate[v] is the remote endpoint of v's matched edge, or -1.
	mate := make([]int, nvertex)
	for i := range mate {
		mate[i] = -1
	}
	// label: 0 free, 1 S-vertex/blossom, 2 T, 5 temporary mark.
	label := make([]int, 2*nvertex)
	labelend := make([]int, 2*nvertex)
	inblossom := make([]int, nvertex)
	blossomparent := make([]int, 2*nvertex)
	blossomchilds := make([][]int, 2*nvertex)
	blossombase := make([]int, 2*nvertex)
	blossomendps := make([][]int, 2*nvertex)
	bestedge := make([]int, 2*nvertex)
	blossombestedges := make([][]int, 2*nvertex)
	var unusedblossoms []int
	dualvar := make([]int64, 2*nvertex)
	allowedge := make([]bool, nedge)
	var queue []int

	for v := 0; v < nvertex; v++ {
		inblossom[v] = v
		blossombase[v] = v
		dualvar[v] = maxweight
	}
	for b := 0; b < 2*nvertex; b++ {
		labelend[b] = -1
		blossomparent[b] = -1
		bestedge[b] = -1
	}
	for b := nvertex; b < 2*nvertex; b++ {
		blossombase[b] = -1
		unusedblossoms = append(unusedblossoms, b)
	}

	slack := func(k int) int64 {
		return dualvar[edges[k].I] + dualvar[edges[k].J] - 2*edges[k].W
	}

	var blossomLeaves func(b int, fn func(v int))
	blossomLeaves = func(b int, fn func(v int)) {
		if b < nvertex {
			fn(b)
			return
		}
		for _, t := range blossomchilds[b] {
			blossomLeaves(t, fn)
		}
	}

	var assignLabel func(w, t, p int)
	assignLabel = func(w, t, p int) {
		b := inblossom[w]
		label[w] = t
		label[b] = t
		labelend[w] = p
		labelend[b] = p
		bestedge[w] = -1
		bestedge[b] = -1
		if t == 1 {
			blossomLeaves(b, func(v int) { queue = append(queue, v) })
		} else if t == 2 {
			base := blossombase[b]
			assignLabel(endpoint[mate[base]], 1, mate[base]^1)
		}
	}

	// scanBlossom traces back from v and w to discover either a new
	// blossom base (returned) or an augmenting path (-1).
	scanBlossom := func(v, w int) int {
		var path []int
		base := -1
		for v != -1 || w != -1 {
			b := inblossom[v]
			if label[b]&4 != 0 {
				base = blossombase[b]
				break
			}
			path = append(path, b)
			label[b] = 5
			if labelend[b] == -1 {
				v = -1
			} else {
				v = endpoint[labelend[b]]
				b = inblossom[v]
				v = endpoint[labelend[b]]
			}
			if w != -1 {
				v, w = w, v
			}
		}
		for _, b := range path {
			label[b] = 1
		}
		return base
	}

	addBlossom := func(base, k int) {
		v, w := edges[k].I, edges[k].J
		bb := inblossom[base]
		bv := inblossom[v]
		bw := inblossom[w]
		b := unusedblossoms[len(unusedblossoms)-1]
		unusedblossoms = unusedblossoms[:len(unusedblossoms)-1]
		blossombase[b] = base
		blossomparent[b] = -1
		blossomparent[bb] = b
		var path, endps []int
		for bv != bb {
			blossomparent[bv] = b
			path = append(path, bv)
			endps = append(endps, labelend[bv])
			v = endpoint[labelend[bv]]
			bv = inblossom[v]
		}
		path = append(path, bb)
		// Reverse so the base comes first.
		for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
			path[i], path[j] = path[j], path[i]
		}
		for i, j := 0, len(endps)-1; i < j; i, j = i+1, j-1 {
			endps[i], endps[j] = endps[j], endps[i]
		}
		endps = append(endps, 2*k)
		for bw != bb {
			blossomparent[bw] = b
			path = append(path, bw)
			endps = append(endps, labelend[bw]^1)
			w = endpoint[labelend[bw]]
			bw = inblossom[w]
		}
		blossomchilds[b] = path
		blossomendps[b] = endps
		label[b] = 1
		labelend[b] = labelend[bb]
		dualvar[b] = 0
		blossomLeaves(b, func(lv int) {
			if label[inblossom[lv]] == 2 {
				queue = append(queue, lv)
			}
			inblossom[lv] = b
		})
		// Recompute the best-edge cache for the new blossom.
		bestedgeto := make([]int, 2*nvertex)
		for i := range bestedgeto {
			bestedgeto[i] = -1
		}
		for _, bvv := range path {
			var nblists [][]int
			if blossombestedges[bvv] == nil {
				blossomLeaves(bvv, func(lv int) {
					lst := make([]int, 0, len(neighbend[lv]))
					for _, p := range neighbend[lv] {
						lst = append(lst, p/2)
					}
					nblists = append(nblists, lst)
				})
			} else {
				nblists = [][]int{blossombestedges[bvv]}
			}
			for _, nblist := range nblists {
				for _, kk := range nblist {
					i, j := edges[kk].I, edges[kk].J
					if inblossom[j] == b {
						i, j = j, i
					}
					_ = i
					bj := inblossom[j]
					if bj != b && label[bj] == 1 &&
						(bestedgeto[bj] == -1 || slack(kk) < slack(bestedgeto[bj])) {
						bestedgeto[bj] = kk
					}
				}
			}
			blossombestedges[bvv] = nil
			bestedge[bvv] = -1
		}
		blossombestedges[b] = nil
		for _, kk := range bestedgeto {
			if kk != -1 {
				blossombestedges[b] = append(blossombestedges[b], kk)
			}
		}
		bestedge[b] = -1
		for _, kk := range blossombestedges[b] {
			if bestedge[b] == -1 || slack(kk) < slack(bestedge[b]) {
				bestedge[b] = kk
			}
		}
	}

	var expandBlossom func(b int, endstage bool)
	expandBlossom = func(b int, endstage bool) {
		for _, s := range blossomchilds[b] {
			blossomparent[s] = -1
			if s < nvertex {
				inblossom[s] = s
			} else if endstage && dualvar[s] == 0 {
				expandBlossom(s, endstage)
			} else {
				blossomLeaves(s, func(v int) { inblossom[v] = s })
			}
		}
		if !endstage && label[b] == 2 {
			// The expanded T-blossom's children must be relabelled.
			entrychild := inblossom[endpoint[labelend[b]^1]]
			j := 0
			for i, c := range blossomchilds[b] {
				if c == entrychild {
					j = i
					break
				}
			}
			var jstep, endptrick int
			if j&1 != 0 {
				j -= len(blossomchilds[b])
				jstep = 1
				endptrick = 0
			} else {
				jstep = -1
				endptrick = 1
			}
			idx := func(i int) int {
				n := len(blossomchilds[b])
				return ((i % n) + n) % n
			}
			p := labelend[b]
			for j != 0 {
				label[endpoint[p^1]] = 0
				label[endpoint[blossomendps[b][idx(j-endptrick)]^endptrick^1]] = 0
				assignLabel(endpoint[p^1], 2, p)
				allowedge[blossomendps[b][idx(j-endptrick)]/2] = true
				j += jstep
				p = blossomendps[b][idx(j-endptrick)] ^ endptrick
				allowedge[p/2] = true
				j += jstep
			}
			bv := blossomchilds[b][idx(j)]
			label[endpoint[p^1]] = 2
			label[bv] = 2
			labelend[endpoint[p^1]] = p
			labelend[bv] = p
			bestedge[bv] = -1
			j += jstep
			for blossomchilds[b][idx(j)] != entrychild {
				bv := blossomchilds[b][idx(j)]
				if label[bv] == 1 {
					j += jstep
					continue
				}
				var vv int = -1
				blossomLeaves(bv, func(lv int) {
					if vv == -1 && label[lv] != 0 {
						vv = lv
					}
				})
				if vv != -1 {
					label[vv] = 0
					label[endpoint[mate[blossombase[bv]]]] = 0
					assignLabel(vv, 2, labelend[vv])
				}
				j += jstep
			}
		}
		label[b] = -1
		labelend[b] = -1
		blossomchilds[b] = nil
		blossomendps[b] = nil
		blossombase[b] = -1
		blossombestedges[b] = nil
		bestedge[b] = -1
		unusedblossoms = append(unusedblossoms, b)
	}

	var augmentBlossom func(b, v int)
	augmentBlossom = func(b, v int) {
		t := v
		for blossomparent[t] != b {
			t = blossomparent[t]
		}
		if t >= nvertex {
			augmentBlossom(t, v)
		}
		i := 0
		for ii, c := range blossomchilds[b] {
			if c == t {
				i = ii
				break
			}
		}
		j := i
		var jstep, endptrick int
		if i&1 != 0 {
			j -= len(blossomchilds[b])
			jstep = 1
			endptrick = 0
		} else {
			jstep = -1
			endptrick = 1
		}
		idx := func(k int) int {
			n := len(blossomchilds[b])
			return ((k % n) + n) % n
		}
		for j != 0 {
			j += jstep
			t := blossomchilds[b][idx(j)]
			p := blossomendps[b][idx(j-endptrick)] ^ endptrick
			if t >= nvertex {
				augmentBlossom(t, endpoint[p])
			}
			j += jstep
			t = blossomchilds[b][idx(j)]
			if t >= nvertex {
				augmentBlossom(t, endpoint[p^1])
			}
			mate[endpoint[p]] = p ^ 1
			mate[endpoint[p^1]] = p
		}
		// Rotate the child list so the new base comes first.
		blossomchilds[b] = append(blossomchilds[b][i:], blossomchilds[b][:i]...)
		blossomendps[b] = append(blossomendps[b][i:], blossomendps[b][:i]...)
		blossombase[b] = blossombase[blossomchilds[b][0]]
	}

	augmentMatching := func(k int) {
		for _, sp := range [2][2]int{{edges[k].I, 2*k + 1}, {edges[k].J, 2 * k}} {
			s, p := sp[0], sp[1]
			for {
				bs := inblossom[s]
				if bs >= nvertex {
					augmentBlossom(bs, s)
				}
				mate[s] = p
				if labelend[bs] == -1 {
					break
				}
				t := endpoint[labelend[bs]]
				bt := inblossom[t]
				s = endpoint[labelend[bt]]
				j := endpoint[labelend[bt]^1]
				if bt >= nvertex {
					augmentBlossom(bt, j)
				}
				mate[j] = labelend[bt]
				p = labelend[bt] ^ 1
			}
		}
	}

	// Main loop: one stage per augmentation opportunity.
	for t := 0; t < nvertex; t++ {
		for i := range label {
			label[i] = 0
		}
		for i := range bestedge {
			bestedge[i] = -1
		}
		for b := nvertex; b < 2*nvertex; b++ {
			blossombestedges[b] = nil
		}
		for i := range allowedge {
			allowedge[i] = false
		}
		queue = queue[:0]
		for v := 0; v < nvertex; v++ {
			if mate[v] == -1 && label[inblossom[v]] == 0 {
				assignLabel(v, 1, -1)
			}
		}
		augmented := false
		for {
			for len(queue) > 0 && !augmented {
				v := queue[len(queue)-1]
				queue = queue[:len(queue)-1]
				for _, p := range neighbend[v] {
					k := p / 2
					w := endpoint[p]
					if inblossom[v] == inblossom[w] {
						continue
					}
					var kslack int64
					if !allowedge[k] {
						kslack = slack(k)
						if kslack <= 0 {
							allowedge[k] = true
						}
					}
					if allowedge[k] {
						switch {
						case label[inblossom[w]] == 0:
							assignLabel(w, 2, p^1)
						case label[inblossom[w]] == 1:
							base := scanBlossom(v, w)
							if base >= 0 {
								addBlossom(base, k)
							} else {
								augmentMatching(k)
								augmented = true
							}
						case label[w] == 0:
							label[w] = 2
							labelend[w] = p ^ 1
						}
						if augmented {
							break
						}
					} else if label[inblossom[w]] == 1 {
						b := inblossom[v]
						if bestedge[b] == -1 || kslack < slack(bestedge[b]) {
							bestedge[b] = k
						}
					} else if label[w] == 0 {
						if bestedge[w] == -1 || kslack < slack(bestedge[w]) {
							bestedge[w] = k
						}
					}
				}
			}
			if augmented {
				break
			}
			// Compute the dual adjustment delta.
			deltatype := -1
			var delta int64
			deltaedge, deltablossom := -1, -1
			if !maxCardinality {
				deltatype = 1
				delta = dualvar[0]
				for v := 1; v < nvertex; v++ {
					if dualvar[v] < delta {
						delta = dualvar[v]
					}
				}
			}
			for v := 0; v < nvertex; v++ {
				if label[inblossom[v]] == 0 && bestedge[v] != -1 {
					d := slack(bestedge[v])
					if deltatype == -1 || d < delta {
						delta = d
						deltatype = 2
						deltaedge = bestedge[v]
					}
				}
			}
			for b := 0; b < 2*nvertex; b++ {
				if blossomparent[b] == -1 && label[b] == 1 && bestedge[b] != -1 {
					d := slack(bestedge[b]) / 2
					if deltatype == -1 || d < delta {
						delta = d
						deltatype = 3
						deltaedge = bestedge[b]
					}
				}
			}
			for b := nvertex; b < 2*nvertex; b++ {
				if blossombase[b] >= 0 && blossomparent[b] == -1 && label[b] == 2 &&
					(deltatype == -1 || dualvar[b] < delta) {
					delta = dualvar[b]
					deltatype = 4
					deltablossom = b
				}
			}
			if deltatype == -1 {
				// No further progress possible (maxCardinality path):
				// make one final dual adjustment and stop the substage.
				deltatype = 1
				min := dualvar[0]
				for v := 1; v < nvertex; v++ {
					if dualvar[v] < min {
						min = dualvar[v]
					}
				}
				delta = min
				if delta < 0 {
					delta = 0
				}
			}
			// Apply the dual adjustment.
			for v := 0; v < nvertex; v++ {
				switch label[inblossom[v]] {
				case 1:
					dualvar[v] -= delta
				case 2:
					dualvar[v] += delta
				}
			}
			for b := nvertex; b < 2*nvertex; b++ {
				if blossombase[b] >= 0 && blossomparent[b] == -1 {
					switch label[b] {
					case 1:
						dualvar[b] += delta
					case 2:
						dualvar[b] -= delta
					}
				}
			}
			switch deltatype {
			case 1:
				// Optimum reached.
			case 2:
				allowedge[deltaedge] = true
				i := edges[deltaedge].I
				if label[inblossom[i]] == 0 {
					i = edges[deltaedge].J
				}
				queue = append(queue, i)
			case 3:
				allowedge[deltaedge] = true
				queue = append(queue, edges[deltaedge].I)
			case 4:
				expandBlossom(deltablossom, false)
			}
			if deltatype == 1 {
				break
			}
		}
		if !augmented {
			break
		}
		// End of stage: expand unlabelled S-blossoms with zero dual.
		for b := nvertex; b < 2*nvertex; b++ {
			if blossomparent[b] == -1 && blossombase[b] >= 0 && label[b] == 1 && dualvar[b] == 0 {
				expandBlossom(b, true)
			}
		}
	}

	out := make([]int, nvertex)
	for v := 0; v < nvertex; v++ {
		if mate[v] >= 0 {
			out[v] = endpoint[mate[v]]
		} else {
			out[v] = -1
		}
	}
	return out
}
