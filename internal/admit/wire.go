package admit

import (
	"sort"

	"github.com/toltiers/toltiers/internal/api"
)

// Status renders the controller's wire view: configuration, brownout
// state, the in-flight gauge, and per-tenant counters (sorted by
// tenant ID, the anonymous tenant rendered as "default").
func (c *Controller) Status() api.AdmissionStatus {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := api.AdmissionStatus{
		Config:           c.cfg,
		State:            "disabled",
		InFlight:         c.inflight.Load(),
		BrownoutEngaged:  c.engaged.Load(),
		BrownoutReleased: c.released.Load(),
	}
	if c.cfg.Enabled {
		st.State = "normal"
		if c.brown.Load() {
			st.State = "brownout"
		}
	}
	for id, t := range c.tenants {
		if id == "" {
			id = "default"
		}
		ta := api.TenantAdmission{
			Tenant:       id,
			Admitted:     t.admitted.Load(),
			ShedRate:     t.shedRate.Load(),
			ShedCapacity: t.shedCapacity.Load(),
			ShedDeadline: t.shedDeadline.Load(),
			Downgraded:   t.downgraded.Load(),
		}
		st.Admitted += ta.Admitted
		st.ShedRate += ta.ShedRate
		st.ShedCapacity += ta.ShedCapacity
		st.ShedDeadline += ta.ShedDeadline
		st.Downgraded += ta.Downgraded
		st.Tenants = append(st.Tenants, ta)
	}
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Tenant < st.Tenants[j].Tenant })
	return st
}
