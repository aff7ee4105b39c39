package main

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/nowlater/nowlater/internal/geo"
	"github.com/nowlater/nowlater/internal/scenario"
)

// Set sizes. Each set is small enough that a run of 30 seconds makes at
// least five passes over it, so every scenario's time is the median of
// several runs.
const (
	ferryMissions  = 16
	fleetScenarios = 8
)

// The generators draw every property the simulated cost depends on
// (batch size, platform, faults, swarm size, request count) from a fixed
// ladder of equal-probability strata: the i-th scenario of a set takes the
// i-th stratum, jittered by the seed within the middle of the stratum, and
// the pairing of strata across properties is a fixed pattern. Properties
// that barely move the cost (start distance, failure rate, speed, fault
// time, positions) are drawn freely from the seed, as is every random
// stream of the simulation itself. Different seeds therefore give
// different scenarios with the same cost profile, so a timing median moves
// with the program and not with the seed.

// strata returns n draws u_i ∈ [0, 1), the i-th inside the i-th of n
// equal-probability strata (its middle 10%).
func strata(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = (float64(i) + 0.45 + 0.1*rng.Float64()) / float64(n)
	}
	return out
}

func logUniform(lo, hi, u float64) float64 { return lo * math.Exp(u*math.Log(hi/lo)) }

func lerp(lo, hi, u float64) float64 { return lo + u*(hi-lo) }

// round3 keeps a generated time on a millisecond grid so the chaos text
// form of the Spec carries it exactly.
func round3(x float64) float64 { return math.Round(x*1000) / 1000 }

// ferryChaos is the fault a ferry mission carries.
type ferryChaos int

const (
	chaosNone ferryChaos = iota
	chaosOutage
	chaosFade
	chaosRelayKill
)

// FerrySpecs generates the ferry workload: paper-shaped ship-then-transmit
// missions. A ferry starts d0 ∈ [60, 400] m from a holding relay, runs the
// now-or-later decision (table for most, exact for a quarter), ships to
// dopt and delivers a reliable batch of log-uniform 1–120 MB. A fifth of
// the missions fly planes. Fixed shares carry a link outage, a deep fade
// or a relay kill with an alt_to fallback.
func FerrySpecs(seed int64) []scenario.Spec {
	const n = ferryMissions
	rng := rand.New(rand.NewSource(seed))
	size, d0, rho, speed, when := strata(rng, n), strata(rng, n), strata(rng, n), strata(rng, n), strata(rng, n)
	specs := make([]scenario.Spec, n)
	for i := range specs {
		platform, alt, spd := scenario.PlatformQuad, 10.0, lerp(8, 12, speed[(i*29)%n])
		if i%5 == 2 {
			platform, alt, spd = scenario.PlatformPlane, 50, lerp(10, 14, speed[(i*29)%n])
		}
		kind := "table"
		if i%4 == 1 {
			kind = "exact"
		}
		s := scenario.Spec{
			Name: fmt.Sprintf("ferry/%02d", i),
			Seed: int64(1 + i),
			Vehicles: []scenario.VehicleSpec{
				{ID: "ferry", Platform: platform, Start: geo.Vec3{X: lerp(60, 400, d0[(i*5)%n]), Z: alt}, SpeedMPS: spd},
				{ID: "relay", Platform: platform, Start: geo.Vec3{Z: alt}, Hold: true},
			},
			Transfers: []scenario.TransferSpec{{
				From: "ferry", To: "relay",
				SizeMB:    math.Round(logUniform(1, 120, size[i])*1000) / 1000,
				DeadlineS: 400,
				Reliable:  true,
				Decision:  &scenario.DecisionSpec{Kind: kind, RhoPerM: logUniform(2e-5, 1e-3, rho[(i*23)%n])},
			}},
		}
		t := round3(lerp(5, 40, when[(i*31)%n]))
		fault := chaosNone
		switch i % 10 {
		case 3:
			fault = chaosOutage
			s.Chaos = []string{fmt.Sprintf("link outage ferry %g %g", t, round3(t+4))}
		case 6:
			fault = chaosFade
			s.Chaos = []string{fmt.Sprintf("link fade relay 12 %g %g", t, round3(t+20))}
		case 9:
			fault = chaosRelayKill
			s.Chaos = []string{fmt.Sprintf("vehicle fail relay %g", t)}
		}
		if i%4 == 3 || fault == chaosRelayKill {
			s.Vehicles = append(s.Vehicles, scenario.VehicleSpec{
				ID: "backup", Platform: platform, Start: geo.Vec3{X: 30, Y: 30, Z: alt}, Hold: true,
			})
			s.Transfers[0].AltTo = "backup"
		}
		specs[i] = s
	}
	return specs
}

// Fleet geometry.
const (
	swarmAreaM   = 1200
	pickupAreaM  = 800
	fleetAltM    = 30
	fleetServers = 8
)

// FleetSpecs generates the fleet workload: a route-flying swarm of 150 to
// 1,500 quads on looped routes, with 1% killed at exact times, sharing the sky with a pickup section — a holding collector
// and a server pool answering Poisson requests with the joint planner.
// There are no link transfers, so the MAC stays idle.
func FleetSpecs(seed int64) []scenario.Spec {
	const n = fleetScenarios
	rng := rand.New(rand.NewSource(seed))
	swarm, count := strata(rng, n), strata(rng, n)
	specs := make([]scenario.Spec, n)
	for i := range specs {
		srng := rand.New(rand.NewSource(seed*1000 + int64(i)))
		pt := func(area float64) geo.Vec3 {
			return geo.Vec3{X: srng.Float64() * area, Y: srng.Float64() * area, Z: fleetAltM}
		}
		center := geo.Vec3{X: pickupAreaM / 2, Y: pickupAreaM / 2, Z: fleetAltM}
		s := scenario.Spec{
			Name:      fmt.Sprintf("fleet/%02d", i),
			Seed:      int64(1 + i),
			DurationS: 60,
			Vehicles:  []scenario.VehicleSpec{{ID: "col", Platform: scenario.PlatformQuad, Start: center, Hold: true}},
		}
		servers := make([]string, fleetServers)
		for k := range servers {
			servers[k] = fmt.Sprintf("srv%02d", k)
			ang := 2 * math.Pi * float64(k) / fleetServers
			s.Vehicles = append(s.Vehicles, scenario.VehicleSpec{
				ID: servers[k], Platform: scenario.PlatformQuad, SpeedMPS: 10,
				Start: geo.Vec3{X: center.X + 200*math.Cos(ang), Y: center.Y + 200*math.Sin(ang), Z: fleetAltM},
			})
		}
		m := int(math.Round(logUniform(150, 1500, swarm[i])))
		for k := 0; k < m; k++ {
			id := fmt.Sprintf("v%04d", k)
			s.Vehicles = append(s.Vehicles, scenario.VehicleSpec{
				ID: id, Platform: scenario.PlatformQuad, Start: pt(swarmAreaM), SpeedMPS: 9,
				Route: []geo.Vec3{pt(swarmAreaM), pt(swarmAreaM), pt(swarmAreaM)}, Loop: true,
			})
		}
		for _, k := range srng.Perm(m)[:(m+50)/100] {
			s.Chaos = append(s.Chaos, fmt.Sprintf("vehicle fail v%04d %g", k, round3(lerp(5, 55, srng.Float64()))))
		}
		s.Requests = &scenario.RequestsSpec{
			Collector: "col",
			Vehicles:  servers,
			Planner:   scenario.PlannerJoint,
			HorizonS:  120,
			Poisson: &scenario.PoissonSpec{
				RatePerS: 0.15, Count: 16 + int(count[(i*5)%n]*12),
				MinSizeMB: 0.5, MaxSizeMB: 2, MinLeadS: 60, MaxLeadS: 150,
				AreaM: pickupAreaM, AltM: fleetAltM,
			},
		}
		specs[i] = s
	}
	return specs
}
