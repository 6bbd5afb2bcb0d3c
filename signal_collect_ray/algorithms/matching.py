"""Maximal matching — deterministic randomized-handshake rounds
(Israeli & Itai 1986, public literature), the symmetry-breaking sibling
of MIS (``mis.py``).

A naive "propose to your minimum-id undecided neighbor, match on mutual
proposals" greedy is correct but SERIALIZES on dense / hub-dominated
graphs: every vertex proposes to the same few small-id hubs, so one
pair matches per round — O(V) supersteps, the silent-iteration-cap
hazard class at web scale. The handshake protocol fixes exactly that:
each round-pair every undecided vertex is pseudo-randomly a PROPOSER or
an ACCEPTOR; proposers propose to a pseudo-random undecided neighbor
(decorrelated targets — no hub pile-up), each acceptor accepts one
incoming proposal and notifies it; a notified proposer matches.
Expected O(log V) round-pairs. All randomness is splitmix64 of
(vid, round counter) — the result is a deterministic function of the
graph, identical at any partition count (same determinism contract as
``mis.py``).

Superstep protocol (two supersteps per round-pair, lockstep phases):

  PROPOSE step  — every undecided vertex signals presence
                  (kind 0); proposers whose cached target is fresh
                  signal kind 1 with ``prp = target``.
  PROPOSE collect — an acceptor with ≥1 proposal naming it picks the
                  minimum-affinity proposer u and enters NOTIFY(u);
                  everyone refreshes the cached target (min static
                  pairwise affinity over current presence) and
                  advances phase. Silence ⇒ no undecided neighbors ⇒
                  retire unmatched.
  NOTIFY step   — NOTIFY(u) vertices signal kind 2 with ``prp = u``.
  NOTIFY collect — a proposer named by a notify row matches its
                  notifier (an acceptor names exactly one proposer,
                  and only the proposer's unique target can name it —
                  no double matching); NOTIFY(u) flips to matched(u);
                  everyone else bumps the round counter.

Safety: a proposal carries exactly one target; an acceptor accepts
exactly one proposal; the accept is committed on the acceptor before
the proposer learns of it, and the proposer matches unconditionally on
the notify — both endpoints decide from the same exchanged values.
Maximality: every undecided vertex signals presence every superstep, so
an undecided vertex with an undecided neighbor is never silent-starved;
it retires only when its undecided neighborhood is empty, hence no edge
ends with both endpoints unmatched. Progress: in a stable round-pair
the (static-affinity) pointer u→target(u) is accurate, and role bits
are fresh per counter, so each component produces a
proposer→acceptor proposal within expected O(1) round-pairs.

State encoding (single int64): ``partner`` (≥ 0) once matched; tagged
negatives otherwise — see ``_enc_*`` below. Signals carry three int64
fields (sender, kind, payload); the combine keeps, per destination,
the min-affinity presence row, the min-affinity valid proposal row and
the notify row — channel-wise minima, idempotent and associative
(sparse path, ``dense_agg=None``). Requires a SYMMETRIC edge table.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from signal_collect_ray.algorithm import Algorithm, StateDict
from signal_collect_ray.util import mix64

DONE = np.int64(-1)  # retired unmatched

_TAG_UND = 1  # undecided: payload = (counter << 34) | (phase << 33) | (target+1)
_TAG_NOTE = 2  # accepted, must notify: payload = proposer vid

_K_PRES, _K_PROP, _K_NOTE = 0, 1, 2

_NO_TARGET = np.int64(-1)


def _enc(tag: int, payload: np.ndarray) -> np.ndarray:
    return -(np.asarray(payload, np.int64) * 4 + tag) - 2


def _dec_tag(state: np.ndarray) -> np.ndarray:
    v = -(state + 2)
    return np.where(state <= -2, v % 4, np.int64(-1))


def _dec_payload(state: np.ndarray) -> np.ndarray:
    return (-(state + 2)) // 4


def _enc_und(counter, phase, target) -> np.ndarray:
    payload = (
        np.asarray(counter, np.int64) << np.int64(34)
    ) | (np.asarray(phase, np.int64) << np.int64(33)) | (
        np.asarray(target, np.int64) + 1
    )
    return _enc(_TAG_UND, payload)


def _und_fields(state: np.ndarray):
    p = _dec_payload(state)
    counter = p >> np.int64(34)
    phase = (p >> np.int64(33)) & np.int64(1)
    target = (p & np.int64((1 << 33) - 1)) - 1
    return counter, phase, target


def _affinity(snd: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Static pseudo-random pairwise priority (asymmetric) — proposers'
    targets decorrelate instead of piling onto global minima."""
    return mix64(
        snd.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        ^ dst.astype(np.uint64)
    )


def _is_proposer(vid: np.ndarray, counter: np.ndarray) -> np.ndarray:
    h = mix64(
        vid.astype(np.uint64)
        ^ mix64(counter.astype(np.uint64) + np.uint64(0x5CA1AB1E))
    )
    return (h & np.uint64(1)).astype(bool)


class MaximalMatching(Algorithm):
    name = "matching"
    state_pa_type = pa.int64()
    signal_fields = [("snd", pa.int64()), ("kind", pa.int64()), ("prp", pa.int64())]
    dense_agg = None

    def init(self, vid, out_degree, sum_out_weight) -> StateDict:
        n = len(vid)
        state = _enc_und(
            np.zeros(n, np.int64), np.zeros(n, np.int64),
            np.full(n, _NO_TARGET, np.int64),
        )
        return {
            "state": state,
            "last": state.copy(),
            "active": np.ones(n, dtype=bool),
            "residual": np.ones(n),
        }

    def src_values(self, sub: StateDict) -> StateDict:
        vid = sub["vid"].astype(np.int64)
        state = sub["state"]
        tag = _dec_tag(state)
        kind = np.full(len(vid), _K_PRES, np.int64)
        prp = np.full(len(vid), -1, np.int64)
        und = tag == _TAG_UND
        if und.any():
            counter, phase, target = _und_fields(state)
            proposing = (
                und
                & (phase == 0)
                & (target >= 0)
                & _is_proposer(vid, counter)
            )
            kind[proposing] = _K_PROP
            prp[proposing] = target[proposing]
        note = tag == _TAG_NOTE
        if note.any():
            kind[note] = _K_NOTE
            prp[note] = _dec_payload(state)[note]
        return {"snd": vid, "kind": kind, "prp": prp}

    def edge_values(self, expanded: StateDict, weight) -> StateDict:
        return {
            "snd": expanded["snd"],
            "kind": expanded["kind"],
            "prp": expanded["prp"],
        }

    @staticmethod
    def _channels(dst, snd, kind, prp):
        """Per-dst channel minima: presence (kind 0/1, min affinity),
        proposal (kind 1 naming dst, min affinity), notify (kind 2
        naming dst, min sender). Returns stacked rows — re-combining
        the output applies the identical rules, so the fold is
        idempotent and associative."""
        out_d, out_s, out_k, out_p = [], [], [], []

        def argmin_per_dst(mask, key):
            d, s, kd, pp, kk = dst[mask], snd[mask], kind[mask], prp[mask], key[mask]
            if not len(d):
                return
            order = np.lexsort((kk, d))
            d, s, kd, pp = d[order], s[order], kd[order], pp[order]
            first = np.r_[True, d[1:] != d[:-1]]
            out_d.append(d[first])
            out_s.append(s[first])
            out_k.append(kd[first])
            out_p.append(pp[first])

        aff = _affinity(snd, dst).astype(np.float64)
        argmin_per_dst(kind <= _K_PROP, aff)
        argmin_per_dst((kind == _K_PROP) & (prp == dst), aff)
        argmin_per_dst((kind == _K_NOTE) & (prp == dst), snd.astype(np.float64))
        if not out_d:
            e = np.empty(0, np.int64)
            return e, e.copy(), e.copy(), e.copy()
        return (
            np.concatenate(out_d),
            np.concatenate(out_s),
            np.concatenate(out_k),
            np.concatenate(out_p),
        )

    def combine(self, dst, values):
        d, s, k, p = self._channels(
            dst,
            np.asarray(values["snd"], np.int64),
            np.asarray(values["kind"], np.int64),
            np.asarray(values["prp"], np.int64),
        )
        return d, {"snd": s, "kind": k, "prp": p}

    def collect(self, prev, dst, sig, signal_threshold) -> StateDict:
        vid = prev["vid"].astype(np.int64)
        n = len(vid)
        state = prev["state"].copy()
        pres_snd = np.full(n, -1, np.int64)
        prop_snd = np.full(n, -1, np.int64)
        note_snd = np.full(n, -1, np.int64)
        if len(dst):
            d, s, k, p = self._channels(
                dst,
                np.asarray(sig["snd"], np.int64),
                np.asarray(sig["kind"], np.int64),
                np.asarray(sig["prp"], np.int64),
            )
            idx = self._align(vid, d)
            pres = k <= _K_PROP
            pres_snd[idx[pres]] = s[pres]
            prop = (k == _K_PROP) & (p == d)
            prop_snd[idx[prop]] = s[prop]
            note = (k == _K_NOTE) & (p == d)
            note_snd[idx[note]] = s[note]

        tag = _dec_tag(state)
        # NOTIFY(u) vertices have sent their accept this step — commit
        note_state = tag == _TAG_NOTE
        state[note_state] = _dec_payload(prev["state"])[note_state]

        und = tag == _TAG_UND
        if und.any():
            counter, phase, target = _und_fields(prev["state"])
            acceptor = ~_is_proposer(vid, counter)
            # PROPOSE collect: acceptors with a proposal commit to it
            accepted = und & (phase == 0) & acceptor & (prop_snd >= 0)
            state[accepted] = _enc(_TAG_NOTE, prop_snd[accepted])
            # NOTIFY collect: proposers named by a notify row match
            matched = und & (phase == 1) & (note_snd >= 0)
            state[matched] = note_snd[matched]
            # silence ⇒ no undecided neighbors left ⇒ retire
            retire = und & (pres_snd < 0) & ~accepted & ~matched
            state[retire] = DONE
            # everyone else refreshes target and advances the phase clock
            adv = und & ~accepted & ~matched & ~retire
            new_target = np.where(pres_snd >= 0, pres_snd, target)
            state[adv] = _enc_und(
                counter[adv] + phase[adv],  # counter bumps after NOTIFY
                1 - phase[adv],
                new_target[adv],
            )
        undecided = _dec_tag(state) == _TAG_UND
        active = undecided | (_dec_tag(state) == _TAG_NOTE)
        return {
            "state": state,
            "last": state.copy(),
            "active": active,
            "residual": active.astype(np.float64),
        }
