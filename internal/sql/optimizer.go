package sql

import (
	"math"
	"sort"

	"just/internal/exec"
	"just/internal/geom"
)

// Optimize applies the paper's rule-based rewrites (Section VI, SQL
// Optimize): constant folding, predicate pushdown, and projection
// pushdown, transforming the analyzed plan into the executed one
// (Fig. 8a → Fig. 8b), then orders each scan's residual predicates by
// estimated selectivity and cost.
func Optimize(p Plan) Plan {
	p = foldPlanConstants(p)
	p = pushDownFilters(p)
	p = pruneColumns(p)
	p = pushDownLimit(p)
	p = orderResiduals(p)
	return p
}

// --- Rule 5: order residual predicates ---

// orderResiduals sorts every scan's residual conjuncts so the cheapest
// and most selective evaluate first: equality comparisons (most
// selective, O(1) to check) before range comparisons, with predicates
// invoking functions — spatial relations, series operators — last, so
// a row a cheap predicate rejects never pays for an expensive one. The
// sort is stable, preserving the query's written order within a rank.
func orderResiduals(p Plan) Plan {
	switch v := p.(type) {
	case *ScanPlan:
		sort.SliceStable(v.Residual, func(i, j int) bool {
			return residualRank(v.Residual[i]) < residualRank(v.Residual[j])
		})
	case *FilterPlan:
		v.Child = orderResiduals(v.Child)
	case *ProjectPlan:
		v.Child = orderResiduals(v.Child)
	case *AggregatePlan:
		v.Child = orderResiduals(v.Child)
	case *SortPlan:
		v.Child = orderResiduals(v.Child)
	case *LimitPlan:
		v.Child = orderResiduals(v.Child)
	case *JoinPlan:
		v.Left = orderResiduals(v.Left)
		v.Right = orderResiduals(v.Right)
	}
	return p
}

// residualRank scores a predicate: 0 = equality, 1 = range/BETWEEN,
// 2 = other scalar forms, 3 = anything calling a function.
func residualRank(e Expr) int {
	if containsFuncCall(e) {
		return 3
	}
	switch v := e.(type) {
	case *BinaryExpr:
		switch v.Op {
		case "=":
			return 0
		case "<", "<=", ">", ">=", "!=", "<>":
			return 1
		}
	case *BetweenExpr:
		return 1
	}
	return 2
}

func containsFuncCall(e Expr) bool {
	switch v := e.(type) {
	case *FuncCall:
		return true
	case *InExpr:
		return true
	case *BinaryExpr:
		return containsFuncCall(v.L) || containsFuncCall(v.R)
	case *UnaryExpr:
		return containsFuncCall(v.X)
	case *BetweenExpr:
		return containsFuncCall(v.X) || containsFuncCall(v.Lo) || containsFuncCall(v.Hi)
	}
	return false
}

// --- Rule 4: push LIMIT into the scan ---

// pushDownLimit lowers a LIMIT sitting directly above a table scan —
// or above a purely 1-1 projection of one — into ScanPlan.Limit, so
// the storage scan stops emitting (and tears down its region workers)
// after N surviving rows instead of materializing the full result
// first. Residual predicates run inside the scan, so the scan's
// emitted-row count is exactly the row count the LIMIT observes; k-NN
// scans are skipped (their candidate search must not be truncated).
// The LimitPlan wrapper stays: it is a no-op over an already-truncated
// frame but keeps EXPLAIN output and plan shapes stable.
func pushDownLimit(p Plan) Plan {
	switch v := p.(type) {
	case *LimitPlan:
		v.Child = pushDownLimit(v.Child)
		target := v.Child
		if pr, ok := target.(*ProjectPlan); ok && !hasAnalysisItem(pr) {
			target = pr.Child
		}
		if sc, ok := target.(*ScanPlan); ok && sc.KNN == nil {
			if sc.Limit == 0 || v.N < sc.Limit {
				sc.Limit = v.N
			}
		}
	case *FilterPlan:
		v.Child = pushDownLimit(v.Child)
	case *ProjectPlan:
		v.Child = pushDownLimit(v.Child)
	case *AggregatePlan:
		v.Child = pushDownLimit(v.Child)
	case *SortPlan:
		v.Child = pushDownLimit(v.Child)
	case *JoinPlan:
		v.Left = pushDownLimit(v.Left)
		v.Right = pushDownLimit(v.Right)
	}
	return p
}

// hasAnalysisItem reports whether the projection invokes a 1-N/N-M
// analysis operator (whose output cardinality differs from its input).
func hasAnalysisItem(pr *ProjectPlan) bool {
	for _, it := range pr.Items {
		if call, ok := it.Expr.(*FuncCall); ok && analysisFuncs[call.Name] {
			return true
		}
	}
	return false
}

// --- Rule 1: calculate constant expressions ---

func foldPlanConstants(p Plan) Plan {
	switch v := p.(type) {
	case *FilterPlan:
		v.Cond = foldExpr(v.Cond)
		v.Child = foldPlanConstants(v.Child)
	case *ProjectPlan:
		for i := range v.Items {
			if v.Items[i].Expr != nil {
				v.Items[i].Expr = foldExpr(v.Items[i].Expr)
			}
		}
		v.Child = foldPlanConstants(v.Child)
	case *AggregatePlan:
		v.Child = foldPlanConstants(v.Child)
	case *SortPlan:
		for i := range v.Keys {
			v.Keys[i].Expr = foldExpr(v.Keys[i].Expr)
		}
		v.Child = foldPlanConstants(v.Child)
	case *LimitPlan:
		v.Child = foldPlanConstants(v.Child)
	case *JoinPlan:
		v.Left = foldPlanConstants(v.Left)
		v.Right = foldPlanConstants(v.Right)
	}
	return p
}

// foldExpr evaluates constant subexpressions bottom-up: `52 * 9` becomes
// `468`, `st_makeMBR(1,2,3,4)` becomes an MBR literal (which is what
// lets predicate pushdown recognize spatial windows).
func foldExpr(e Expr) Expr {
	switch v := e.(type) {
	case *BinaryExpr:
		v.L = foldExpr(v.L)
		v.R = foldExpr(v.R)
		if isConst(v.L) && isConst(v.R) && v.Op != "AND" && v.Op != "OR" {
			if val, err := evalConst(v); err == nil {
				return &Literal{Val: val}
			}
		}
		return v
	case *UnaryExpr:
		v.X = foldExpr(v.X)
		if isConst(v.X) {
			if val, err := evalConst(v); err == nil {
				return &Literal{Val: val}
			}
		}
		return v
	case *FuncCall:
		if analysisFuncs[v.Name] {
			return v // never fold analysis operators
		}
		if _, isAgg := exec.ParseAgg(v.Name); isAgg {
			return v
		}
		allConst := true
		for i := range v.Args {
			v.Args[i] = foldExpr(v.Args[i])
			if !isConst(v.Args[i]) {
				allConst = false
			}
		}
		if allConst {
			if val, err := evalConst(v); err == nil {
				return &Literal{Val: val}
			}
		}
		return v
	case *BetweenExpr:
		v.X = foldExpr(v.X)
		v.Lo = foldExpr(v.Lo)
		v.Hi = foldExpr(v.Hi)
		return v
	case *InExpr:
		for i := range v.Fn.Args {
			v.Fn.Args[i] = foldExpr(v.Fn.Args[i])
		}
		return v
	default:
		return e
	}
}

func isConst(e Expr) bool {
	_, ok := e.(*Literal)
	return ok
}

// --- Rule 2: push down selections ---

func pushDownFilters(p Plan) Plan {
	switch v := p.(type) {
	case *FilterPlan:
		// Push the filter through pure column projections (SELECT * or
		// plain column lists never rename, so predicates stay valid below).
		if proj, ok := v.Child.(*ProjectPlan); ok && isPureColumnProject(proj) {
			v.Child = proj.Child
			proj.Child = pushDownFilters(v)
			return pushDownFilters(proj)
		}
		v.Child = pushDownFilters(v.Child)
		// Push into a scan (possibly through nothing at all).
		if scan, ok := v.Child.(*ScanPlan); ok {
			residue := pushConjuncts(scan, splitConjuncts(v.Cond))
			if len(residue) == 0 {
				return scan
			}
			v.Cond = joinConjuncts(residue)
			return v
		}
		return v
	case *ProjectPlan:
		v.Child = pushDownFilters(v.Child)
		return v
	case *AggregatePlan:
		v.Child = pushDownFilters(v.Child)
		return v
	case *SortPlan:
		v.Child = pushDownFilters(v.Child)
		return v
	case *LimitPlan:
		v.Child = pushDownFilters(v.Child)
		return v
	case *JoinPlan:
		v.Left = pushDownFilters(v.Left)
		v.Right = pushDownFilters(v.Right)
		return v
	default:
		return p
	}
}

// isPureColumnProject reports whether every item is an unaliased column
// reference (so predicates can move below it unchanged).
func isPureColumnProject(p *ProjectPlan) bool {
	for _, it := range p.Items {
		if it.Star {
			continue
		}
		id, ok := it.Expr.(*Ident)
		if !ok || (it.Alias != "" && it.Alias != id.Name) {
			return false
		}
	}
	return true
}

func splitConjuncts(e Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []Expr{e}
}

func joinConjuncts(es []Expr) Expr {
	out := es[0]
	for _, e := range es[1:] {
		out = &BinaryExpr{Op: "AND", L: out, R: e}
	}
	return out
}

// pushConjuncts moves each conjunct into the scan: spatial windows,
// temporal bounds and k-NN specs become index parameters; everything
// else that only references scan columns becomes a residual predicate.
// It returns the conjuncts that could not be pushed.
func pushConjuncts(scan *ScanPlan, conjuncts []Expr) []Expr {
	var residue []Expr
	schema := scan.Table.Schema()
	geomCol := scan.Table.Desc.GeomColumn
	timeCol := scan.Table.Desc.TimeColumn
	for _, c := range conjuncts {
		switch v := c.(type) {
		case *BinaryExpr:
			if v.Op == "WITHIN" {
				if id, ok := v.L.(*Ident); ok && id.Name == geomCol {
					if lit, ok := v.R.(*Literal); ok {
						if m, ok := lit.Val.(geom.MBR); ok {
							merged := m
							if scan.Window != nil {
								merged = scan.Window.Clip(m)
							}
							scan.Window = &merged
							continue
						}
						if g, ok := lit.Val.(geom.Geometry); ok {
							m := g.MBR()
							if scan.Window != nil {
								m = scan.Window.Clip(m)
							}
							scan.Window = &m
							continue
						}
					}
				}
			}
			// fid = literal → attribute-index point lookup (the paper's
			// attribute indexing, Fig. 1).
			if v.Op == "=" {
				if id, ok := v.L.(*Ident); ok && id.Name == scan.Table.Desc.FidColumn {
					if lit, ok := v.R.(*Literal); ok && lit.Val != nil {
						scan.FIDEq = lit.Val
						continue
					}
				}
			}
			// time <op> literal → temporal bound.
			if timeCol != "" {
				if id, ok := v.L.(*Ident); ok && id.Name == timeCol {
					if lit, ok := v.R.(*Literal); ok {
						if ms, err := toTimeMS(lit.Val); err == nil {
							// Times are integer milliseconds, so a strict bound
							// is the inclusive one a millisecond inside it. At
							// the int64 limits there is no such bound, and the
							// predicate stays a residual.
							op := v.Op
							switch {
							case op == ">" && ms < math.MaxInt64:
								op, ms = ">=", ms+1
							case op == "<" && ms > math.MinInt64:
								op, ms = "<=", ms-1
							}
							switch op {
							case ">=":
								scan.TMin = maxTime(scan.TMin, ms)
								continue
							case "<=":
								scan.TMax = minTime(scan.TMax, ms)
								continue
							case "=":
								scan.TMin = maxTime(scan.TMin, ms)
								scan.TMax = minTime(scan.TMax, ms)
								continue
							}
						}
					}
				}
			}
		case *BetweenExpr:
			if timeCol != "" {
				if id, ok := v.X.(*Ident); ok && id.Name == timeCol {
					lo, okLo := v.Lo.(*Literal)
					hi, okHi := v.Hi.(*Literal)
					if okLo && okHi {
						loMS, err1 := toTimeMS(lo.Val)
						hiMS, err2 := toTimeMS(hi.Val)
						if err1 == nil && err2 == nil {
							scan.TMin = maxTime(scan.TMin, loMS)
							scan.TMax = minTime(scan.TMax, hiMS)
							continue
						}
					}
				}
			}
		case *InExpr:
			// geom IN st_KNN(point, k) → k-NN scan.
			if id, ok := v.X.(*Ident); ok && id.Name == geomCol && v.Fn.Name == "st_knn" && len(v.Fn.Args) == 2 {
				pLit, okP := v.Fn.Args[0].(*Literal)
				kLit, okK := v.Fn.Args[1].(*Literal)
				if okP && okK {
					if p, ok := pLit.Val.(geom.Point); ok {
						if kv, ok := kLit.Val.(int64); ok && kv > 0 {
							scan.KNN = &KNNSpec{Point: p, K: int(kv)}
							continue
						}
					}
				}
			}
		}
		// Anything referencing only scan columns is evaluated inside the
		// scan (closer to the data); otherwise it stays above.
		if checkIdents(c, schema) == nil && !referencesItem(c) {
			scan.Residual = append(scan.Residual, c)
			continue
		}
		residue = append(residue, c)
	}
	return residue
}

func referencesItem(e Expr) bool {
	found := false
	var walk func(Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case *Ident:
			if v.Name == "item" {
				found = true
			}
		case *BinaryExpr:
			walk(v.L)
			walk(v.R)
		case *UnaryExpr:
			walk(v.X)
		case *BetweenExpr:
			walk(v.X)
			walk(v.Lo)
			walk(v.Hi)
		case *FuncCall:
			for _, a := range v.Args {
				walk(a)
			}
		case *InExpr:
			walk(v.X)
			walk(v.Fn)
		}
	}
	walk(e)
	return found
}

func maxTime(cur *int64, v int64) *int64 {
	if cur == nil || v > *cur {
		return &v
	}
	return cur
}

func minTime(cur *int64, v int64) *int64 {
	if cur == nil || v < *cur {
		return &v
	}
	return cur
}

// --- Rule 3: push down projections ---

// pruneColumns walks the plan collecting the columns each subtree needs,
// then narrows every ScanPlan to exactly those (Fig. 8b retrieves only
// name, geom, time and fid).
func pruneColumns(p Plan) Plan {
	prune(p, nil)
	return p
}

// prune narrows scans; needed == nil means "all columns".
func prune(p Plan, needed map[string]bool) {
	switch v := p.(type) {
	case *ScanPlan:
		if needed == nil {
			return
		}
		if needed["item"] || needed["*"] {
			return // whole-entity access needs every column
		}
		full := v.Table.Schema()
		var cols []string
		for _, f := range full.Fields {
			if needed[f.Name] {
				cols = append(cols, f.Name)
			}
		}
		if len(cols) > 0 && len(cols) < full.Len() {
			v.Cols = cols
		}
	case *ViewPlan:
		// Views are already materialized; nothing to prune.
	case *FilterPlan:
		if needed == nil {
			prune(v.Child, nil)
			return
		}
		child := addedCols(needed)
		collectIdents(v.Cond, child)
		prune(v.Child, child)
	case *ProjectPlan:
		// Narrow the projection itself to the columns the parent needs
		// (Fig. 8b rewrites the inner `SELECT *` to four columns).
		if needed != nil && isPureColumnProject(v) {
			var kept []SelectItem
			var fields []exec.Field
			schema := v.Schema()
			for i, it := range v.Items {
				if it.Star {
					continue
				}
				name := schema.Field(i).Name
				if needed[name] {
					kept = append(kept, it)
					fields = append(fields, schema.Field(i))
				}
			}
			if len(kept) > 0 && len(kept) < len(v.Items) {
				v.Items = kept
				v.schema = exec.NewSchema(fields...)
			}
		}
		child := map[string]bool{}
		for _, it := range v.Items {
			if it.Star {
				prune(v.Child, nil)
				return
			}
			collectIdents(it.Expr, child)
		}
		prune(v.Child, child)
	case *AggregatePlan:
		child := map[string]bool{}
		for _, k := range v.Keys {
			child[k] = true
		}
		for _, g := range v.Aggs {
			if g.Col != "*" && g.Col != "" {
				child[g.Col] = true
			}
		}
		prune(v.Child, child)
	case *SortPlan:
		if needed == nil {
			prune(v.Child, nil)
			return
		}
		child := addedCols(needed)
		for _, k := range v.Keys {
			collectIdents(k.Expr, child)
		}
		prune(v.Child, child)
	case *LimitPlan:
		prune(v.Child, needed)
	case *JoinPlan:
		// Join output names may be rewritten ("r_" prefix); keep both
		// sides whole rather than risk dropping a needed column.
		prune(v.Left, nil)
		prune(v.Right, nil)
	}
}

func addedCols(needed map[string]bool) map[string]bool {
	out := map[string]bool{}
	for k := range needed {
		out[k] = true
	}
	return out
}

func collectIdents(e Expr, into map[string]bool) {
	switch v := e.(type) {
	case *Ident:
		into[v.Name] = true
	case *BinaryExpr:
		collectIdents(v.L, into)
		collectIdents(v.R, into)
	case *UnaryExpr:
		collectIdents(v.X, into)
	case *BetweenExpr:
		collectIdents(v.X, into)
		collectIdents(v.Lo, into)
		collectIdents(v.Hi, into)
	case *FuncCall:
		for _, a := range v.Args {
			collectIdents(a, into)
		}
	case *InExpr:
		collectIdents(v.X, into)
		collectIdents(v.Fn, into)
	}
}
