package apex

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"greennfv/internal/rl/ddpg"
)

// This file is the trainer-process side of the multi-process mode:
// the trainer serves its learner over net/rpc (rpc.go), optionally
// spawns and supervises the actor processes itself (SpawnRemote),
// paces learner updates against the experience actually received,
// checkpoints on an interval, and drains the round gracefully once
// the update budget is spent. The actor-process side is
// remoteactor.go.

// remotePollInterval is how often the pacing loop re-checks the
// received-experience counter while waiting for actors. Unlike the
// in-process pipeline (prefetch.go) there is no channel to block on —
// experience arrives via RPC handlers — so a short sleep is the
// honest alternative to busy-spinning.
const remotePollInterval = 500 * time.Microsecond

// normalizeSpec aligns a remote-actor spec with the trainer: the
// agent template is always the learner's full configuration — the
// same template in-process actors copy, so TD priorities, exploration
// and (above all) network shape cannot silently diverge between
// modes — and unset cadence/sigma fields inherit the trainer's.
func normalizeSpec(spec *ActorSpec, cfg TrainerConfig, agentCfg ddpg.Config) {
	spec.Agent = agentCfg
	if spec.BaseSigma == 0 {
		spec.BaseSigma = cfg.BaseSigma
	}
	if spec.PushEvery == 0 {
		spec.PushEvery = cfg.PushEvery
	}
	if spec.SyncEvery == 0 {
		spec.SyncEvery = cfg.SyncEvery
	}
}

// spawnActor execs one actor process with the normalized spec on its
// stdin. Child stderr is passed through so actor logs interleave with
// the trainer's.
func (t *Trainer) spawnActor(addr string, rank, steps int, specJSON []byte) (*exec.Cmd, error) {
	argvPrefix := t.cfg.SpawnRemote
	args := append(append([]string(nil), argvPrefix[1:]...),
		"-learner", addr,
		"-rank", strconv.Itoa(rank),
		"-steps", strconv.Itoa(steps),
		"-spec", "-",
	)
	cmd := exec.Command(argvPrefix[0], args...)
	cmd.Stdin = bytes.NewReader(specJSON)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("apex: spawn actor %d (%s): %w", rank, argvPrefix[0], err)
	}
	return cmd, nil
}

// fleet tracks the spawned actor processes so the supervisors, the
// drain path and the failure path can coordinate: which process
// currently serves each rank, whether the fleet has been stopped, and
// the first fatal error.
type fleet struct {
	mu      sync.Mutex
	cmds    map[int]*exec.Cmd
	stopped bool
	err     error
}

// track records rank's current process; it reports false (and kills
// the process) when the fleet has already been stopped, closing the
// race between a respawn and a concurrent stop.
func (f *fleet) track(rank int, cmd *exec.Cmd) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped {
		cmd.Process.Kill()
		return false
	}
	f.cmds[rank] = cmd
	return true
}

// untrack clears rank's process entry after Wait returns.
func (f *fleet) untrack(rank int) {
	f.mu.Lock()
	delete(f.cmds, rank)
	f.mu.Unlock()
}

// fail records the first fatal fleet error and kills every live actor
// so the round ends instead of limping on with a hole in the ladder.
func (f *fleet) fail(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
	f.stop()
}

// stop kills every live actor process and blocks respawns.
func (f *fleet) stop() {
	f.mu.Lock()
	f.stopped = true
	for _, cmd := range f.cmds {
		cmd.Process.Kill()
	}
	f.mu.Unlock()
}

// firstErr returns the recorded fatal error, if any.
func (f *fleet) firstErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// superviseRank keeps one actor rank alive: spawn, wait, and on a
// crash respawn the same rank — identical sigma/seed ladder rung,
// identical step budget — with jittered exponential backoff, up to
// cfg.MaxActorRestarts times. Respawns stop once the round is
// draining (the rank's crash no longer matters) or the fleet has been
// stopped. A rank that exhausts its restart budget fails the fleet.
func (t *Trainer) superviseRank(fl *fleet, service *LearnerService, addr string, rank, steps int, specJSON []byte, jrng *rand.Rand) {
	base := t.cfg.ActorRestartBackoff
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	for restarts := 0; ; restarts++ {
		cmd, err := t.spawnActor(addr, rank, steps, specJSON)
		if err != nil {
			fl.fail(err)
			return
		}
		if !fl.track(rank, cmd) {
			cmd.Wait()
			return
		}
		werr := cmd.Wait()
		fl.untrack(rank)
		if werr == nil {
			return // clean exit
		}
		fl.mu.Lock()
		stopped := fl.stopped
		fl.mu.Unlock()
		if stopped || service.Draining() {
			return
		}
		if restarts >= t.cfg.MaxActorRestarts {
			fl.fail(fmt.Errorf("apex: actor process %d: %w (gave up after %d restarts)",
				rank, werr, restarts))
			return
		}
		// Jittered exponential backoff before the respawn, so several
		// ranks crashed by one fault don't re-register in lockstep.
		d := base << uint(restarts)
		if d > 5*time.Second {
			d = 5 * time.Second
		}
		d = d/2 + time.Duration(jrng.Int63n(int64(d/2)+1))
		fmt.Fprintf(os.Stderr, "apex: actor rank %d crashed (%v); respawn %d/%d in %v\n",
			rank, werr, restarts+1, t.cfg.MaxActorRestarts, d)
		time.Sleep(d)
		if service.Draining() {
			return
		}
	}
}

// maybeCheckpoint writes an interval checkpoint when the trainer is
// configured for them and enough updates have landed since the last.
func (t *Trainer) maybeCheckpoint(updates int, lastCkpt *int) error {
	if t.cfg.CheckpointPath == "" || t.cfg.CheckpointEvery <= 0 {
		return nil
	}
	if updates-*lastCkpt < t.cfg.CheckpointEvery {
		return nil
	}
	if err := t.Checkpoint(t.cfg.CheckpointPath); err != nil {
		return err
	}
	*lastCkpt = updates
	return nil
}

// runRemote executes the multi-process mode: serve the learner over
// RPC, launch (or await) RemoteActors actor processes, pace learner
// updates against received experience, and drain gracefully. Spawned
// fleets are supervised: a crashed rank is respawned on its original
// ladder rung (bounded, jittered backoff), and a wedged fleet is
// killed once drain has outwaited cfg.DrainTimeout of heartbeat
// silence. With CheckpointPath set the trainer checkpoints on an
// update interval and after drain; a trainer that Resume'd picks the
// budget up where the checkpoint left it.
//
// The update budget matches the round-robin mode exactly —
// LearnPerStep updates per post-warmup environment step — but updates
// are paced to the experience actually received (ROADMAP's "adaptive
// learner pacing" in its simplest form): the learner never runs ahead
// of the replay the way a free-running loop would while remote actors
// are still warming up. Updates are counted by the agent's LearnSteps
// delta, so a starved LearnStep (replay below one batch — possible
// right after a resume without a replay snapshot) does not burn
// budget without learning.
func (t *Trainer) runRemote() error {
	// Concurrent RPC pushes and the pacing loop's updates contend on
	// the replay; give them the same lock-striped buffer the parallel
	// mode uses (honoring cfg.ReplayShards).
	if err := t.installShardedReplay(t.learner.Agent()); err != nil {
		return err
	}
	// Restore checkpoint state only after the replay implementation
	// matches the one that wrote it.
	if err := t.applyResume(); err != nil {
		return err
	}
	spec := t.cfg.RemoteSpec
	addr := t.cfg.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	srv, err := Serve(t.learner, addr)
	if err != nil {
		return fmt.Errorf("apex: remote mode: %w", err)
	}
	defer srv.Close()
	service := srv.Service()

	var specJSON bytes.Buffer
	if err := spec.Encode(&specJSON); err != nil {
		return err
	}

	// Launch the actor fleet, splitting TotalSteps across ranks
	// (earlier ranks absorb the remainder), one supervisor per rank.
	// With no SpawnRemote the actors are external: they connect to
	// ListenAddr on their own and run until drained.
	spawned := len(t.cfg.SpawnRemote) > 0
	childrenDone := make(chan struct{})
	fl := &fleet{cmds: make(map[int]*exec.Cmd)}
	if spawned {
		actorAddr := srv.Addr()
		if t.cfg.AdvertiseAddr != "" {
			actorAddr = t.cfg.AdvertiseAddr
		}
		share := t.cfg.TotalSteps / t.cfg.RemoteActors
		extra := t.cfg.TotalSteps % t.cfg.RemoteActors
		var wg sync.WaitGroup
		for rank := 0; rank < t.cfg.RemoteActors; rank++ {
			steps := share
			if rank < extra {
				steps++
			}
			if steps == 0 {
				continue
			}
			wg.Add(1)
			jrng := rand.New(rand.NewSource(0x5efa11 + int64(rank)))
			go func(rank, steps int) {
				defer wg.Done()
				t.superviseRank(fl, service, actorAddr, rank, steps, specJSON.Bytes(), jrng)
			}(rank, steps)
		}
		go func() {
			wg.Wait()
			close(childrenDone)
		}()
	}

	// Pacing loop: spend the round-robin update budget, but never
	// ahead of the experience received. Updates and RPC pushes run
	// concurrently — PushExperience takes no learner mutex, so actors
	// never stall behind an update.
	budget := t.cfg.LearnPerStep * (t.cfg.TotalSteps - t.cfg.WarmupSteps)
	batchSz := t.learner.Agent().Config().BatchSize
	spi := t.cfg.SamplesPerInsert
	updates := t.learner.Agent().LearnSteps() // nonzero after a resume
	lastCkpt := updates
	done := false
	for updates < budget {
		if spawned && !done {
			select {
			case <-childrenDone:
				done = true
			default:
			}
		}
		_, received := t.learner.Stats()
		allowed := t.cfg.LearnPerStep * (received - t.cfg.WarmupSteps)
		if done || allowed > budget {
			// No more experience is coming (or the target is met):
			// spend the remainder on what the actors left behind.
			allowed = budget
		}
		if spi > 0 {
			// SamplesPerInsert cap, same ratio the in-process pipeline
			// enforces: at most spi replay samples consumed per
			// transition received, each update consuming one batch.
			if lim := int(spi * float64(received) / float64(batchSz)); allowed > lim {
				allowed = lim
			}
		}
		starved := false
		for updates < allowed {
			t.learner.LearnStep(t.cfg.VersionEvery)
			now := t.learner.Agent().LearnSteps()
			if now == updates {
				// Replay below one batch: no update happened, and
				// none will until more experience lands.
				starved = true
				break
			}
			updates = now
			if err := t.maybeCheckpoint(updates, &lastCkpt); err != nil {
				fl.stop()
				return err
			}
		}
		if done && (updates >= allowed || starved) {
			// The fleet is gone; a ratio-capped or starved remainder
			// will never be unlocked by new experience.
			break
		}
		if updates < budget {
			time.Sleep(remotePollInterval)
		}
	}

	// Graceful drain: every subsequent push is still accepted but
	// tells its actor to stop. Spawned fleets are then waited for —
	// bounded, when DrainTimeout is set, by heartbeat silence, after
	// which stragglers are killed so a zombie cannot wedge the round.
	// External fleets are given until pushes quiesce.
	service.BeginDrain()
	if spawned {
		if t.cfg.DrainTimeout > 0 {
			ticker := time.NewTicker(t.cfg.DrainTimeout / 4)
		drainWait:
			for {
				select {
				case <-childrenDone:
					break drainWait
				case <-ticker.C:
					if service.FleetIdle(t.cfg.DrainTimeout) {
						fmt.Fprintf(os.Stderr, "apex: drain: no push heartbeat for %v; killing remaining actors\n",
							t.cfg.DrainTimeout)
						fl.stop()
						<-childrenDone
						break drainWait
					}
				}
			}
			ticker.Stop()
		} else {
			<-childrenDone
		}
	} else {
		quiesce(t.learner)
	}
	t.remoteStats = service.ActorStats()
	_, received := t.learner.Stats()
	if received > t.cfg.TotalSteps {
		received = t.cfg.TotalSteps
	}
	t.steps = received
	// Final checkpoint: capture the drained end-state so a restart
	// after the round (or a resume of an interval checkpoint) sees the
	// completed budget.
	if t.cfg.CheckpointPath != "" {
		if err := t.Checkpoint(t.cfg.CheckpointPath); err != nil {
			return err
		}
	}
	if err := srv.Close(); err != nil {
		return err
	}
	return fl.firstErr()
}

// Note for external (non-spawned) fleets: the pacing loop terminates
// only once TotalSteps transitions have been received — the trainer
// blocks until its actors deliver. Give genuinely remote deployments
// a step budget sized to what the fleet will actually produce.

// quiesce waits until the learner stops receiving experience (two
// consecutive quiet polls) or a bounded timeout, so external actors'
// in-flight pushes land before the server closes.
func quiesce(l *Learner) {
	const poll = 50 * time.Millisecond
	const limit = 3 * time.Second
	_, last := l.Stats()
	quiet := 0
	for waited := time.Duration(0); waited < limit && quiet < 2; waited += poll {
		time.Sleep(poll)
		_, now := l.Stats()
		if now == last {
			quiet++
		} else {
			quiet = 0
		}
		last = now
	}
}
