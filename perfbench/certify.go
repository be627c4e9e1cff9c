package main

import (
	"fmt"
	"strings"

	"ssos/internal/guest"
	"ssos/internal/imglint"
)

// certify builds the convergence-certificate catalog and checks it: a
// pass is guest.ConvergenceCerts, then imglint.CheckRingCert for every
// ring configuration, then the model checker's Verify for each
// configuration's protocol up to modelMaxN nodes. An operation is one
// configuration (its certificate check plus its model check).
//
// Self-checks: every certificate proves, and for n <= modelMaxN the
// certificate's rank bound equals the model checker's exact worst case.
type certify struct {
	states int // imglint states of the first pass
}

// modelMaxN bounds the explicit-state model checks, as the certificate
// cross-check's exact-equality claim does.
const modelMaxN = 4

// setup assembles the guests and builds the certificate catalog once,
// as a checker must before its first check.
func (c *certify) setup(seed int64) error {
	c.states = -1
	if err := assembleGuests(); err != nil {
		return err
	}
	specs, err := guest.ConvergenceCerts()
	if err == nil && len(specs) != 18 {
		err = fmt.Errorf("certificate catalog has %d rings, want 18", len(specs))
	}
	return err
}

// variantOf names the ring variant of a certificate ("mbox-kstate-n4" ->
// "kstate").
func variantOf(name string) string {
	v := strings.TrimPrefix(name, "mbox-")
	if i := strings.Index(v, "-n"); i >= 0 {
		v = v[:i]
	}
	return v
}

func (c *certify) pass(r rec, st *runStats) error {
	var specs []guest.RingCertSpec
	d, err := r.call("guest", "guest.ConvergenceCerts", func(rec) error {
		var err error
		specs, err = guest.ConvergenceCerts()
		return err
	})
	if err != nil {
		return err
	}
	st.sample("guest.certs_build_ms", ms(d))
	var states int
	perVariant := map[string]float64{}
	var local, model float64
	proved := 0
	for _, spec := range specs {
		var res imglint.CertResult
		dc, _ := r.call("imglint", spec.Cert.Name, func(rec) error {
			res = imglint.CheckRingCert(spec.Cert)
			return nil
		})
		if res.Proved() {
			proved++
		}
		states += res.States
		if res.Mode == "local" {
			local += ms(dc)
		} else {
			perVariant[variantOf(res.Name)] += ms(dc)
		}
		op := dc
		if spec.Cert.N <= modelMaxN {
			var worst int
			dm, err := r.call("model", spec.Cert.Name, func(rec) error {
				sys := spec.Protocol.System(spec.Cert.N)
				var err error
				worst, err = sys.Verify(len(sys.States))
				return err
			})
			model += ms(dm)
			op += dm
			st.check(err == nil, "%s: model check: %v", res.Name, err)
			st.check(res.Mode == "ranking" && res.RankBound == worst,
				"%s: rank bound %d (mode %s) != model exact worst case %d", res.Name, res.RankBound, res.Mode, worst)
		}
		st.op(op)
		st.mark()
	}
	st.check(proved == len(specs) && len(specs) == 18, "%d/%d certificates proved, want 18/18", proved, len(specs))
	for v, t := range perVariant {
		st.sample("imglint.cert_ms."+v, t)
	}
	st.sample("imglint.local_ms", local)
	st.sample("model.verify_ms", model)
	if c.states < 0 {
		c.states = states
	} else {
		st.check(states == c.states, "imglint explored %d states, first pass %d", states, c.states)
	}
	return nil
}

func (c *certify) finish(st *runStats) {
	for _, name := range []string{"imglint.cert_ms.kstate", "imglint.cert_ms.dijkstra3", "imglint.cert_ms.ghosh4",
		"imglint.local_ms", "model.verify_ms", "guest.certs_build_ms"} {
		st.setLayer(name, median(st.get(name)), "ms")
	}
	st.setLayer("imglint.states", float64(c.states), "count")
}

func (c *certify) close() {}
