package ecosystem

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ctrise/internal/ca"
	"ctrise/internal/ctfront"
	"ctrise/internal/ctlog"
	"ctrise/internal/psl"
	"ctrise/internal/sct"
)

// Config parameterizes a World.
type Config struct {
	// Seed drives all randomness. Same seed, same world.
	Seed int64
	// Scale shrinks paper-scale counts (e.g. 2.3M certs/day) to
	// simulation scale. Default 1e-4.
	Scale float64
	// TimelineStart/TimelineEnd bound the Figure 1 replay. Defaults:
	// 2015-01-01 to 2018-05-01.
	TimelineStart time.Time
	TimelineEnd   time.Time
	// NumDomains is the registrable-domain population size. Default 20000.
	NumDomains int
	// NimbusCapacity, if positive, rate-limits the Nimbus2018 log
	// (submissions/second of virtual time) to reproduce the overload
	// incident.
	NimbusCapacity float64
	// Parallelism bounds the worker count of both data planes: the
	// issuance replay (RunTimeline) and the harvest-and-analysis crawl
	// (HarvestLogs). 0 means GOMAXPROCS; 1 runs every stage inline on
	// the calling goroutine. Output is identical at every setting.
	Parallelism int
	// DataDir, when set, makes every log durable: each gets a WAL +
	// snapshot subdirectory under DataDir and can be reopened after a
	// crash or restart mid-timeline (ctlog.Open). Logs run with
	// SyncAtSequence — entries fsync at the per-day seal/publish
	// barriers, not per submission — because the replay's durability
	// unit is the day batch. Empty means in-memory logs (the default).
	DataDir string
	// TileSpan overrides the sealed-tile span of durable logs (entries
	// per immutable on-disk tile; power of two ≥ 2, 0 = ctlog default).
	// Only meaningful with DataDir: in-memory logs never seal. Small
	// spans force frequent sealing and are the equivalence tests' way of
	// exercising the tiled path at replay scale.
	TileSpan int
	// UseFrontend routes every timeline issuance through a multi-log
	// submission frontend (internal/ctfront) over all of the world's
	// logs instead of each CA's own log policy: the frontend picks a
	// Chrome-CT-policy-compliant log set per certificate under a
	// deterministic, Seed-derived ranking, so the replay exercises the
	// policy engine and the fan-out routing end to end while per-log
	// trees stay byte-identical at every Parallelism setting. Frontend
	// mode is incompatible with NimbusCapacity (the overload replay
	// couples a CA's submissions across logs, which policy-driven
	// routing cannot reproduce).
	UseFrontend bool
}

// Domain is one registrable domain of the population.
type Domain struct {
	Name   string // full registrable domain, e.g. "bacodu.com"
	Suffix string // its public suffix
}

// World is the assembled synthetic CT ecosystem.
type World struct {
	Cfg   Config
	Clock *Clock
	// Logs are the Table 1 logs by name.
	Logs map[string]*ctlog.Log
	// LogNames is the stable, Table 1-ordered name list.
	LogNames []string
	// CAs maps organization name to its issuing CA.
	CAs map[string]*ca.CA
	// Specs are the CA rate models and policies.
	Specs []CASpec
	// PSL is the public suffix list in force.
	PSL *psl.List
	// Domains is the registrable-domain population ("our domain list" in
	// Section 4.1).
	Domains []Domain
	// Frontend is the multi-log submission frontend over all logs; nil
	// unless Config.UseFrontend is set.
	Frontend *ctfront.Frontend

	rng *rand.Rand
}

// New assembles a world.
func New(cfg Config) (*World, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1e-4
	}
	if cfg.TimelineStart.IsZero() {
		cfg.TimelineStart = Date(2015, 1, 1)
	}
	if cfg.TimelineEnd.IsZero() {
		cfg.TimelineEnd = Date(2018, 5, 1)
	}
	if cfg.NumDomains <= 0 {
		cfg.NumDomains = 20000
	}
	w := &World{
		Cfg:   cfg,
		Clock: NewClock(cfg.TimelineStart),
		PSL:   psl.Default(),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	logs, err := buildLogs(w.Clock, cfg.NimbusCapacity, cfg.DataDir, cfg.TileSpan)
	if err != nil {
		return nil, err
	}
	w.Logs = logs
	for _, spec := range logSpecs {
		w.LogNames = append(w.LogNames, spec.name)
	}
	if cfg.UseFrontend {
		if cfg.NimbusCapacity > 0 {
			return nil, errors.New("ecosystem: UseFrontend is incompatible with NimbusCapacity (the overload replay's coupled commit submits through each CA's own log policy)")
		}
		w.Frontend, err = buildFrontend(w)
		if err != nil {
			return nil, err
		}
	}

	w.Specs = DefaultCASpecs()
	w.CAs = make(map[string]*ca.CA, len(w.Specs))
	for _, spec := range w.Specs {
		// The per-issuance policy overrides these defaults, but the CA
		// needs at least one configured log.
		anyLog := []ca.LogSubmitter{w.Logs[LogGooglePilot]}
		c, err := ca.New(ca.Config{
			Name:  spec.Org + " Authority",
			Org:   spec.Org,
			Logs:  anyLog,
			Clock: w.Clock.Now,
		})
		if err != nil {
			return nil, err
		}
		w.CAs[spec.Org] = c
	}

	w.Domains = make([]Domain, cfg.NumDomains)
	for i := range w.Domains {
		suffix := SuffixFor(w.rng)
		w.Domains[i] = Domain{Name: DomainName(i) + "." + suffix, Suffix: suffix}
	}
	return w, nil
}

// submitters resolves log names to LogSubmitters.
func (w *World) submitters(names []string) []ca.LogSubmitter {
	out := make([]ca.LogSubmitter, 0, len(names))
	for _, n := range names {
		if l, ok := w.Logs[n]; ok {
			out = append(out, l)
		}
	}
	return out
}

// RandomDomain draws a domain from the population.
func (w *World) RandomDomain(rng *rand.Rand) Domain {
	return w.Domains[rng.Intn(len(w.Domains))]
}

// DomainRNG returns a rand.Rand seeded deterministically by the world
// seed and the domain name, so per-domain properties are stable across
// issuances. It is called once per issuance on the replay's hottest
// path, hence the O(1)-seeded source.
func (w *World) DomainRNG(domain string) *rand.Rand {
	return NewRand(DeriveSeed(w.Cfg.Seed, SaltString(domain)))
}

// minParallelDayIssuances is the day size below which the replay stages
// inline: fanning a handful of submissions out costs more in goroutine
// startup than it saves. The pre-2018 timeline is almost entirely such
// days; the March–May 2018 ramp (the bulk of the total work) is far
// above it.
const minParallelDayIssuances = 16

// issuancePlan is one planned certificate order of a timeline day: the
// dayRng draws are done, nothing is built or submitted yet.
type issuancePlan struct {
	names  []string
	policy []string
}

// dayWork is one fully constructed timeline day flowing through the
// plan/construct → commit pipeline.
type dayWork struct {
	day   time.Time
	plans [][]issuancePlan
	preps [][]*ca.Prepared
}

// RunTimeline replays the issuance timeline day by day: every CA issues
// at its model's (scaled) rate through its log policy, names drawn from
// the domain population under the Table 2 label model. Each log is
// sequenced and publishes an STH at the end of each day (the virtual
// MMD boundary). onDay, if non-nil, observes each completed day.
//
// Every day runs the same three stages: constructTimelineDay plans the
// day's draws (per-(day, CA) seed-split RNGs) and builds its
// certificates on workers — serial blocks reserved per CA up front,
// issuance time passed explicitly so the shared clock is untouched —
// commitTimelineDay stages the submissions into the logs, and finishDay
// runs one deterministic sequence+publish step per log. With
// Config.Parallelism 1 the stages run in turn on the calling goroutine.
// Above 1 they form a two-stage pipeline: a lookahead goroutine
// constructs day d+1 while day d commits. Staging order is irrelevant:
// the log sequencer integrates each day's batch in canonical (timestamp,
// identity-hash) order, so log contents — entry bytes and tree hashes —
// are identical at every parallelism setting and at any scheduling.
//
// The commit is coupled when Config.NimbusCapacity > 0 or a CA logs its
// final certificates: a rejected submission aborts the rest of its
// issuance, and a final certificate embeds the SCTs its precertificate
// collected. The coupled commit runs each issuance's full CA submission
// flow in (CA spec, plan) order on one worker; construction still fans
// out.
//
// With Config.UseFrontend the commit stage ignores the CAs' per-plan
// log policies and submits each precertificate once to w.Frontend,
// which fans it out to a policy-compliant log set under the seed-
// derived deterministic ranking. Frontend routing is a pure function of
// the submission bytes, so the per-log trees remain byte-identical at
// every parallelism.
func (w *World) RunTimeline(onDay func(day time.Time)) error {
	coupled := w.Cfg.NimbusCapacity > 0
	for _, c := range w.CAs {
		if c.LogsFinalCerts() {
			if w.Frontend != nil {
				return errors.New("ecosystem: UseFrontend is incompatible with a CA that logs final certificates")
			}
			coupled = true
		}
	}
	// The Parallelism budget is split between the two overlapping
	// stages (construction gets the larger half — certificate building
	// outweighs staging) so the pipeline never runs more than the
	// configured number of workers at once; worker counts never affect
	// output, only scheduling.
	parallelism := Workers(w.Cfg.Parallelism, math.MaxInt)
	constructWorkers := (parallelism + 1) / 2
	commitWorkers := max(parallelism-constructWorkers, 1)
	// produce constructs every day in order and hands it to emit.
	// Serial blocks are reserved inside constructTimelineDay, so
	// reservation order follows day order and certificate bytes stay
	// deterministic.
	produce := func(emit func(dayWork) error) error {
		for day := w.Cfg.TimelineStart; day.Before(w.Cfg.TimelineEnd); day = day.AddDate(0, 0, 1) {
			dw, err := w.constructTimelineDay(day, constructWorkers, coupled)
			if err != nil {
				return fmt.Errorf("ecosystem: planning %s: %w", day.Format("2006-01-02"), err)
			}
			if err := emit(dw); err != nil {
				return err
			}
		}
		return nil
	}
	commit := func(dw dayWork) error {
		if err := w.commitTimelineDay(dw, commitWorkers, coupled); err != nil {
			return err
		}
		return w.finishDay(dw.day, onDay)
	}
	if parallelism == 1 {
		return produce(commit)
	}

	// The unbuffered channel gives a lookahead of exactly one day: the
	// producer constructs day d+1 while the consumer commits day d.
	work := make(chan dayWork)
	done := make(chan struct{})
	defer close(done)
	var constructErr error
	go func() {
		defer close(work)
		constructErr = produce(func(dw dayWork) error {
			select {
			case work <- dw:
				return nil
			case <-done:
				return errors.New("ecosystem: timeline commit stopped")
			}
		})
	}()
	for dw := range work {
		if err := commit(dw); err != nil {
			return err
		}
	}
	return constructErr
}

// finishDay advances the clock to the day boundary, sequences and
// publishes every log's STH, and notifies the observer. Publishing
// every log every day (touched or not) keeps STH timestamps advancing
// the way the pre-pipeline replay did. With a frontend in play this is
// also its weight-commit point: the day's submissions have all landed
// and every STH is published, so the load observations folded into
// routing weights here are identical at any parallelism — the next
// day's routing stays a deterministic function of committed state.
func (w *World) finishDay(day time.Time, onDay func(day time.Time)) error {
	w.Clock.Set(day.Add(24 * time.Hour))
	for _, name := range w.LogNames {
		if _, err := w.Logs[name].PublishSTH(); err != nil {
			return err
		}
	}
	if w.Frontend != nil {
		w.Frontend.CommitWeights()
	}
	if onDay != nil {
		onDay(day)
	}
	return nil
}

// planTimelineDay performs every dayRng draw of one (day, CA) pair in
// plan order: the i-th plan is the CA's i-th issuance of the day.
func (w *World) planTimelineDay(day time.Time, spec CASpec) []issuancePlan {
	// Day- and CA-seeded rng so per-day burst draws are stable
	// regardless of other CAs' consumption of randomness (and of which
	// worker plans the pair).
	dayRng := NewRand(DeriveSeed(w.Cfg.Seed, uint64(day.Unix()), SaltString(spec.Org)))
	rate := spec.Model.Rate(day, dayRng) * w.Cfg.Scale
	n := int(rate)
	if dayRng.Float64() < rate-float64(n) {
		n++
	}
	plans := make([]issuancePlan, n)
	for i := 0; i < n; i++ {
		domain := w.RandomDomain(dayRng)
		// A domain's certified name set is a stable property:
		// re-issuances for the same domain cover the same names,
		// so the deduplicated corpus keeps the Table 2 label
		// ratios instead of saturating toward the union.
		plans[i] = issuancePlan{
			names:  NamesForDomain(w.DomainRNG(domain.Name), domain.Name, domain.Suffix),
			policy: spec.Policy(dayRng),
		}
	}
	return plans
}

// constructTimelineDay runs the plan and construct phases of one day
// without touching the shared clock, so it can execute on the pipeline's
// lookahead goroutine while the previous day commits.
//
// Draws: each (day, CA) stream is private, so CAs plan concurrently.
// Construction: serial blocks are reserved per CA in spec order on the
// calling goroutine, so the i-th issuance of a CA's day gets serial
// base+i; workers then build certificates for arbitrary plan indices
// with the issuance time passed explicitly (noon of the day). The
// constructed bytes are independent of worker scheduling and of
// whatever day the clock currently shows. Only coupled preps carry
// their log set (Request.Logs): the coupled commit submits through the
// CA flow, the staged commit reads the plan's policy directly.
func (w *World) constructTimelineDay(day time.Time, workers int, coupled bool) (dayWork, error) {
	dw := dayWork{day: day, plans: make([][]issuancePlan, len(w.Specs))}
	ForEach(len(w.Specs), workers, func(si int) {
		dw.plans[si] = w.planTimelineDay(day, w.Specs[si])
	})
	total := 0
	for _, l := range dw.plans {
		total += len(l)
	}
	if total == 0 {
		return dw, nil
	}
	embed := !day.Before(Date(2018, 1, 1))
	noon := day.Add(12 * time.Hour)

	type flatRef struct{ si, i int }
	flat := make([]flatRef, 0, total)
	bases := make([]uint64, len(w.Specs))
	dw.preps = make([][]*ca.Prepared, len(w.Specs))
	for si := range w.Specs {
		n := len(dw.plans[si])
		if n > 0 {
			bases[si] = w.CAs[w.Specs[si].Org].ReserveSerials(uint64(n))
		}
		dw.preps[si] = make([]*ca.Prepared, n)
		for i := 0; i < n; i++ {
			flat = append(flat, flatRef{si, i})
		}
	}
	var prepErr FirstError
	ForEach(len(flat), workers, func(k int) {
		ref := flat[k]
		pl := dw.plans[ref.si][ref.i]
		caInst := w.CAs[w.Specs[ref.si].Org]
		req := ca.Request{Names: pl.names, EmbedSCTs: embed}
		if coupled {
			req.Logs = w.submitters(pl.policy)
		}
		p, err := caInst.PrepareSerialAt(req, bases[ref.si]+uint64(ref.i), noon)
		if err != nil {
			prepErr.Record(k, err)
			return
		}
		dw.preps[ref.si][ref.i] = p
	})
	return dw, prepErr.Err()
}

// commitTimelineDay stages one constructed day into the logs. The
// submissions fan out over workers with no per-log ordering at all —
// every worker stages into whichever log its (prepared, log) pair
// names, and the sequencer's canonical batch order (applied by
// finishDay's PublishSTH) makes the integrated tree independent of the
// staging interleaving.
func (w *World) commitTimelineDay(dw dayWork, workers int, coupled bool) error {
	w.Clock.Set(dw.day.Add(12 * time.Hour))
	if w.Frontend != nil {
		return w.commitDayViaFrontend(dw, workers)
	}
	if coupled {
		return w.commitDayCoupled(dw)
	}
	type submission struct {
		p   *ca.Prepared
		log *ctlog.Log
	}
	// Empty days (the sparse early timeline) carry no preps at all.
	var subs []submission
	for si := range dw.preps {
		for i, p := range dw.preps[si] {
			for _, logName := range dw.plans[si][i].policy {
				if l, ok := w.Logs[logName]; ok {
					subs = append(subs, submission{p, l})
				}
			}
		}
	}
	if len(subs) < minParallelDayIssuances {
		workers = 1
	}
	var commitErr FirstError
	ForEach(len(subs), workers, func(i int) {
		s := subs[i]
		if _, err := s.log.AddPreChain(s.p.IssuerKeyHash(), s.p.TBS()); err != nil {
			// Overload cannot be replicated here: the coupled commit
			// drops the *rest of the issuance* across logs, which a
			// staged fan-out cannot see. Config.NimbusCapacity selects
			// the coupled commit; a capacity configured on a log by
			// other means must fail loudly instead of silently
			// diverging.
			if errors.Is(err, ctlog.ErrOverloaded) {
				err = fmt.Errorf("%s is capacity-limited; only the coupled commit (Config.NimbusCapacity > 0) replays overload drops: %w", s.log.Name(), err)
			}
			commitErr.Record(i, err)
		}
	})
	if err := commitErr.Err(); err != nil {
		return fmt.Errorf("ecosystem: committing %s: %w", dw.day.Format("2006-01-02"), err)
	}
	return nil
}

// commitDayCoupled submits each issuance through the CA's full flow
// (Prepared.Submit), in (CA spec, plan) order on the calling goroutine.
// An ErrOverloaded submission drops the rest of its issuance (the CA
// retries nothing, which is what the Nimbus incident looked like from
// the outside); all other errors are fatal.
func (w *World) commitDayCoupled(dw dayWork) error {
	for si, preps := range dw.preps {
		for _, p := range preps {
			if _, err := p.Submit(); err != nil && !errors.Is(err, ctlog.ErrOverloaded) {
				return fmt.Errorf("ecosystem: %s on %s: %w", w.Specs[si].Org, dw.day.Format("2006-01-02"), err)
			}
		}
	}
	return nil
}

// commitDayViaFrontend stages one constructed day through the
// submission frontend: one AddPreChain per prepared certificate, the
// frontend fanning each out to its deterministic policy-compliant log
// set. The per-plan policy draws are ignored — log selection is the
// frontend's job in this mode.
func (w *World) commitDayViaFrontend(dw dayWork, workers int) error {
	var preps []*ca.Prepared
	for si := range dw.preps {
		preps = append(preps, dw.preps[si]...)
	}
	if len(preps) < minParallelDayIssuances {
		workers = 1
	}
	var commitErr FirstError
	ForEach(len(preps), workers, func(i int) {
		p := preps[i]
		if _, err := w.Frontend.AddPreChain(context.Background(), p.IssuerKeyHash(), p.TBS()); err != nil {
			commitErr.Record(i, err)
		}
	})
	if err := commitErr.Err(); err != nil {
		return fmt.Errorf("ecosystem: frontend commit %s: %w", dw.day.Format("2006-01-02"), err)
	}
	return nil
}

// Verifiers returns the SCT verifier map over all logs, as the Section
// 3.4 detector needs.
func (w *World) Verifiers() map[sct.LogID]sct.SCTVerifier {
	out := make(map[sct.LogID]sct.SCTVerifier, len(w.Logs))
	for _, l := range w.Logs {
		out[l.LogID()] = l.Verifier()
	}
	return out
}
