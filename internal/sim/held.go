package sim

import "slices"

// heldSet keeps the nodes whose last step declared Hold outside live, so
// that no stage visits them while they wait. A node returning a held pair
// (Kind, Then) in slot s takes Kind in the slots of s's parity and Then in
// the others until a delivery wakes it; its kind in slot t is therefore
// kinds[v][t&1], and the engine writes it into actions[v] only in a slot
// whose listeners it joins, so the gates and the decode tail read it as
// they read a live listener's. A held node joins a slot's listeners only
// when it can receive: never in a slot with no sender, held
// ListenAddressed only when a sender's Msg.To names it, held Listen under
// a listen range only when a sender lies in range, and held Listen without
// a range in every slot with a sender. One that received a delivery
// rejoins live, ascending, before the next slot's stage 1.
type heldSet struct {
	nodes []int32 // the held nodes, in no particular order
	// at[v] is v's index in nodes, or -1 when v is not held; nil until
	// the engine's first hold sizes the set.
	at    []int32
	kinds [][2]ActionKind // kinds[v][p]: held v's kind in the slots of parity p
	// listen and addressed count the held nodes listening plainly and
	// addressed in the slots of each parity.
	listen, addressed [2]int
	// holding lists the slot's nodes that start holding, ascending; stage
	// 2 collects them and the held set takes them after the gates.
	holding []int32
	// found is the slot's held listeners, then its woken held nodes, both
	// ascending.
	found []int32
}

// init sizes the set for n nodes of which total are live: nodes only ever
// leave, so no later slot holds more, and the slot loop allocates nothing.
func (h *heldSet) init(n, total int) {
	h.at = make([]int32, n)
	for i := range h.at {
		h.at[i] = -1
	}
	h.kinds = make([][2]ActionKind, n)
	h.nodes = make([]int32, 0, total)
	h.found = make([]int32, 0, total)
	h.holding = append(make([]int32, 0, total), h.holding...)
}

// listening returns how many held nodes listen, plainly or addressed, in
// slot.
func (h *heldSet) listening(slot int) int {
	return h.listen[slot&1] + h.addressed[slot&1]
}

// count adds d to the listener counts of a node holding kinds k.
func (h *heldSet) count(k *[2]ActionKind, d int) {
	for p, kind := range k {
		switch kind {
		case ActionListen:
			h.listen[p] += d
		case ActionListenAddressed:
			h.addressed[p] += d
		}
	}
}

// remove takes v out of the set, moving the last held node into its place.
func (h *heldSet) remove(v int32) {
	k, last := h.at[v], h.nodes[len(h.nodes)-1]
	h.nodes[k], h.at[last] = last, k
	h.nodes = h.nodes[:len(h.nodes)-1]
	h.at[v] = -1
	h.count(&h.kinds[v], -1)
}

// hold moves node i, whose action of the current slot holds, into the held
// set. The inbox it read this slot becomes its next slot's delivery buffer,
// which stage 1 would have emptied, so it is emptied here.
func (e *Engine) hold(i int32) {
	h, a := &e.held, &e.actions[i]
	p := e.slot & 1
	k := &h.kinds[i]
	k[p], k[p^1] = a.Kind, a.Then
	h.count(k, 1)
	h.at[i] = int32(len(h.nodes))
	h.nodes = append(h.nodes, i)
	e.inboxes[i] = e.inboxes[i][:0]
}

// listenHeld merges into lis, which stays ascending, the held nodes that
// can receive in the current slot, which has a sender: the addressees of
// its senders that hold ListenAddressed, and the nodes that hold Listen,
// under a listen range only those with a sender in range. Each one's kind
// is written into its action. The addressees come from the senders; under
// a range the plain listeners come from the hot cells of the gate's grid
// when readyGate chose it, and from a scan of the held set otherwise.
//
//sinr:hotpath
func (e *Engine) listenHeld() {
	h, g := &e.held, &e.gate
	pts, r := e.inst.Points(), e.listenRange
	ranged := r > 0 && !e.cfg.noListenGate
	p := e.slot & 1
	h.found = h.found[:0]
	if h.addressed[p] > 0 {
		if e.cfg.noAddrGate {
			for _, v := range h.nodes {
				if h.kinds[v][p] == ActionListenAddressed {
					h.found = append(h.found, v)
				}
			}
		} else {
			for _, t := range e.txs {
				if to := e.actions[t.Sender].Msg.To; to >= 0 && to < len(h.at) &&
					h.at[to] >= 0 && h.kinds[to][p] == ActionListenAddressed {
					h.found = append(h.found, int32(to))
				}
			}
		}
		if ranged {
			kept := 0
			for _, v := range h.found {
				if e.heard(v) {
					h.found[kept] = v
					kept++
				}
			}
			h.found = h.found[:kept]
		}
	}
	if h.listen[p] > 0 {
		switch {
		case !ranged:
			for _, v := range h.nodes {
				if h.kinds[v][p] == ActionListen {
					h.found = append(h.found, v)
				}
			}
		case g.grid:
			if !g.indexed {
				g.index(e.live, h.holding, h.nodes)
			}
			for _, id := range g.hotCells {
				c := &g.cells[id]
				for _, v := range g.members[g.first[id]:g.first[id+1]] {
					if h.at[v] >= 0 && h.kinds[v][p] == ActionListen && g.hears(c, pts[v], r) {
						h.found = append(h.found, v)
					}
				}
			}
		default:
			for _, v := range h.nodes {
				if h.kinds[v][p] == ActionListen && e.nearSender(pts[v]) {
					h.found = append(h.found, v)
				}
			}
		}
	}
	if len(h.found) == 0 {
		return
	}
	slices.Sort(h.found)
	h.found = slices.Compact(h.found) // two senders may address one node
	for _, v := range h.found {
		a, k := &e.actions[v], &h.kinds[v]
		a.Kind, a.Then = k[p], k[p^1]
	}
	e.lis = mergeAscending(e.lis, h.found)
}

// wake moves every held listener of the slot that received a delivery back
// into live, keeping live ascending, so that the next slot steps it with
// its inbox.
//
//sinr:hotpath
func (e *Engine) wake() {
	h := &e.held
	h.found = h.found[:0]
	for _, v := range e.lis {
		if h.at[v] >= 0 && len(e.next[v]) > 0 {
			h.remove(v)
			h.found = append(h.found, v)
		}
	}
	if len(h.found) > 0 {
		e.live = mergeAscending(e.live, h.found)
	}
}

// mergeAscending merges the ascending src, disjoint from the ascending
// dst, into dst in place, from the back; dst must have room for src.
func mergeAscending(dst, src []int32) []int32 {
	i, j := len(dst)-1, len(src)-1
	dst = dst[:len(dst)+len(src)]
	for k := len(dst) - 1; j >= 0; k-- {
		if i >= 0 && dst[i] > src[j] {
			dst[k] = dst[i]
			i--
		} else {
			dst[k] = src[j]
			j--
		}
	}
	return dst
}
