package codegen

import (
	"fmt"

	"github.com/tinysystems/artemis-go/internal/ir"
)

// GenericSites counts the guards, if-conditions and assignments of m and
// lists, as "state/transition: site", the ones no typed closure proves:
// CompileMachine compiles those to the generic ir.Apply closures.
func GenericSites(m *ir.Machine) (generic []string, sites int) {
	cc := &compiler{m: m, slots: map[string]int{}}
	for i, v := range m.Vars {
		cc.slots[v.Name] = i
	}
	note := func(where string, typed bool, site string) {
		sites++
		if !typed {
			generic = append(generic, where+": "+site)
		}
	}
	var body func(where string, stmts []ir.Stmt)
	body = func(where string, stmts []ir.Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case ir.Assign:
				slot := cc.slots[s.Name]
				note(where, cc.store(slot, m.Vars[slot].Type, s.X) != nil, s.Name+" = "+s.X.String())
			case ir.If:
				note(where, cc.boolExpr(s.Cond) != nil, "if "+s.Cond.String())
				body(where, s.Then)
				body(where, s.Else)
			}
		}
	}
	for _, st := range m.States {
		for ti, tr := range st.Transitions {
			where := fmt.Sprintf("%s/%d", st.Name, ti)
			if tr.Guard != nil {
				note(where, cc.boolExpr(tr.Guard) != nil, "["+tr.Guard.String()+"]")
			}
			body(where, tr.Body)
		}
	}
	return generic, sites
}
