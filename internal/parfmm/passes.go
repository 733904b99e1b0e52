package parfmm

import "context"

// Message tag phases (tag = boxIndex*4 + phase).
const (
	tagSrcGather = iota
	tagSrcScatter
	tagDenGather
	tagDenScatter
)

// evaluate runs one interaction computation: the three logically
// separated stages of paper Section 3.2 as the engine's passes over the
// local essential tree, with the ghost communication overlapping the
// upward pass and the equivalent-density communication overlapping the
// U- and X-list computations (the sends are posted before the compute
// phases; the virtual clock then absorbs transfer time into the compute
// window).
func (rk *rank) evaluate(ctx context.Context) error {
	sw, err := rk.ev.Begin(ctx, [][]float64{rk.in.Den}, nil)
	if err != nil {
		return err
	}
	defer sw.Release()
	rk.sw = sw
	nb := len(rk.tree.Boxes)
	rk.ghostPos = make([][]float64, nb)
	rk.ghostDen = make([][]float64, nb)
	rk.ghostPhi = make([][]float64, nb)

	// Overlap: post the ghost source sends before the upward compute.
	mk := rk.markIO()
	sp := rk.beginSpan("source_gather")
	rk.postSourceGather()
	rk.endSpanIO(sp, mk)
	sp = rk.beginSpan("upward")
	rk.phiU, err = sw.Up(ctx, nil)
	rk.endSpan(sp)
	if err != nil {
		return err
	}
	mk = rk.markIO()
	sp = rk.beginSpan("source_exchange")
	rk.exchangeSources()
	rk.endSpanIO(sp, mk)

	// Overlap: post the density sends, run the dense (U) and X-list
	// computations, then complete the density exchange and finish the
	// downward pass.
	mk = rk.markIO()
	sp = rk.beginSpan("density_gather")
	rk.postDensityGather()
	rk.endSpanIO(sp, mk)
	sp = rk.beginSpan("down_ux")
	err = sw.Near(ctx, rk.ghostPos, rk.ghostDen)
	rk.endSpan(sp)
	if err != nil {
		return err
	}
	mk = rk.markIO()
	sp = rk.beginSpan("density_exchange")
	rk.exchangeDensities()
	rk.endSpanIO(sp, mk)
	sp = rk.beginSpan("down_vw_local")
	err = sw.Far(ctx, rk.ghostPhi, nil)
	if err == nil {
		err = sw.Leaf(ctx)
	}
	rk.endSpan(sp)
	if err != nil {
		return err
	}

	// Un-permute potentials to the rank's original local order.
	pots, st, err := sw.Finish(ctx, nil)
	if err != nil {
		return err
	}
	rk.pot, rk.stats = pots[0], st
	return nil
}

// postSourceGather sends this rank's local source positions and
// densities of every contributed leaf to the leaf's owner (Algorithm 1,
// step 1; eager sends, no blocking).
func (rk *rank) postSourceGather() {
	sd := rk.opt.Kernel.SourceDim()
	for bi := range rk.tree.Boxes {
		b := &rk.tree.Boxes[bi]
		if !b.Leaf || b.SrcCount == 0 || rk.owner[bi] == int32(rk.c.Rank()) {
			continue
		}
		payload := make([]float64, 0, 3*b.SrcCount+sd*b.SrcCount)
		payload = append(payload, rk.tree.SrcSlice(int32(bi))...)
		payload = append(payload, rk.sw.Density(0, int32(bi))...)
		rk.c.SendFloat64s(int(rk.owner[bi]), bi*4+tagSrcGather, payload)
	}
}

// exchangeSources completes Algorithm 1 for leaf source data: owners
// receive and combine contributor parts, then scatter the global data to
// every user; users store the ghost copy.
func (rk *rank) exchangeSources() {
	c := rk.c
	sd := rk.opt.Kernel.SourceDim()
	me := c.Rank()
	for bi := range rk.tree.Boxes {
		b := &rk.tree.Boxes[bi]
		if !b.Leaf {
			continue
		}
		if rk.owner[bi] == int32(me) {
			// Gather: combine local part with contributor messages.
			pos := append([]float64(nil), rk.tree.SrcSlice(int32(bi))...)
			den := append([]float64(nil), rk.sw.Density(0, int32(bi))...)
			rk.forEachRank(rk.contrib, int32(bi), func(r int) {
				if r == me {
					return
				}
				payload := c.RecvFloat64s(r, bi*4+tagSrcGather)
				np := len(payload) / (3 + sd)
				pos = append(pos, payload[:3*np]...)
				den = append(den, payload[3*np:]...)
			})
			global := make([]float64, 0, len(pos)+len(den))
			global = append(global, pos...)
			global = append(global, den...)
			// Scatter to users.
			rk.forEachRank(rk.srcUse, int32(bi), func(r int) {
				if r == me {
					return
				}
				c.SendFloat64s(r, bi*4+tagSrcScatter, global)
			})
			if rk.isUser(rk.srcUse, int32(bi)) {
				rk.ghostPos[bi] = pos
				rk.ghostDen[bi] = den
			}
		} else if rk.isUser(rk.srcUse, int32(bi)) {
			payload := c.RecvFloat64s(int(rk.owner[bi]), bi*4+tagSrcScatter)
			np := len(payload) / (3 + sd)
			rk.ghostPos[bi] = payload[:3*np]
			rk.ghostDen[bi] = payload[3*np:]
		}
	}
}

// postDensityGather sends partial upward equivalent densities of
// contributed boxes to their owners.
func (rk *rank) postDensityGather() {
	me := rk.c.Rank()
	for bi := range rk.tree.Boxes {
		if rk.phiU[bi] == nil || rk.owner[bi] == int32(me) {
			continue
		}
		rk.c.SendFloat64s(int(rk.owner[bi]), bi*4+tagDenGather, rk.phiU[bi])
	}
}

// exchangeDensities sums partial upward densities at owners and
// scatters the global densities to users.
func (rk *rank) exchangeDensities() {
	c := rk.c
	me := c.Rank()
	ne := rk.ev.Ops.EquivCount()
	for bi := range rk.tree.Boxes {
		if rk.owner[bi] == int32(me) {
			sum := make([]float64, ne)
			if rk.phiU[bi] != nil {
				copy(sum, rk.phiU[bi])
			}
			rk.forEachRank(rk.contrib, int32(bi), func(r int) {
				if r == me {
					return
				}
				part := c.RecvFloat64s(r, bi*4+tagDenGather)
				for i := range sum {
					sum[i] += part[i]
				}
			})
			rk.forEachRank(rk.denUse, int32(bi), func(r int) {
				if r == me {
					return
				}
				c.SendFloat64s(r, bi*4+tagDenScatter, sum)
			})
			if rk.isUser(rk.denUse, int32(bi)) {
				rk.ghostPhi[bi] = sum
			}
		} else if rk.isUser(rk.denUse, int32(bi)) {
			rk.ghostPhi[bi] = c.RecvFloat64s(int(rk.owner[bi]), bi*4+tagDenScatter)
		}
	}
}
