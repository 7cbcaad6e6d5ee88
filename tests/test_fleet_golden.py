"""Golden tick-domain digests of small fleets.

Each digest pins one volume's ``(state, finish_tick, conversion_ticks,
rebuilds_completed, breaker snapshot, latency)`` as the sha256 of its
canonical JSON.  The values were recorded before the fleet's breaker
quantiles, divergence audit, ``verify()`` and scrub were rewritten, so
any drift in a tick, a trip, a pause or a quantile float fails here.
"""

import hashlib
import json

from repro.faults.events import DiskFailureEvent
from repro.fleet import FleetVolume, QosTarget, SparePool, VolumeSpec, run_fleet

_KEYS = (
    "state", "finish_tick", "conversion_ticks", "rebuilds_completed",
    "breaker", "latency",
)


def tick_digest(result: dict) -> str:
    doc = {k: result[k] for k in _KEYS}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


#: one data-disk failure (volume 2, one spare) and p99 targets below an
#: interrupted write's service time, so breakers trip
TIGHT_TENANTS = (("gold", 7.0), ("silver", 9.0), ("bronze", 12.0))

FLEET_DIGESTS = {
    0: "260426912f2fc39d92132f7f7333a682f087b61341d11e3776bd97b3986ebef4",
    1: "612bd5d1c51c55433a3b140fcf77d63e39e31c1b4d4fe6da53cde6fb5cb8d758",
    2: "09b53520259a84760d90e44cd5b3be5e9d608d5be38d52809471be0787e73067",
    3: "66d9c1a359b851e09a576cb36eb2f5abe2e6b955a2bfe5a3a3db5575bef9f1a3",
    4: "78fff96a350443236866a69e66f7af3d958cd179d23f99a0282f9db3023aceca",
    5: "c3115094e0f24ccf02598af307babd272ce6e0d21b5a331b048da23f7a1a2ad4",
}


def test_tight_fleet_digest_is_pinned():
    report = run_fleet(
        volumes=6, clients=1, groups=3, seed=3, requests_per_volume=24,
        batch=4, spares=1, fail_volumes=(2,), fail_disk=1,
        tenants=TIGHT_TENANTS,
    )
    assert report["breaker_trips"] > 0
    assert report["rebuilds_completed"] == 1
    assert report["divergent_blocks"] == 0
    got = {r["volume_id"]: tick_digest(r) for r in report["volumes"]}
    assert got == FLEET_DIGESTS


def test_p50_p95_constrained_volumes_are_pinned():
    # targets on every quantile, so the p50/p95 paths of the breaker
    # decide trips too (the fleet's tenants constrain p99 only)
    specs = [
        VolumeSpec(
            volume_id=0, p=7, groups=3, seed=9, batch=4, n_requests=40,
            qos=QosTarget(p50_ticks=4.0, p95_ticks=6.0, p99_ticks=7.0),
            failures=(DiskFailureEvent(time=20.0, disk=2),),
        ),
        VolumeSpec(
            volume_id=1, p=5, groups=4, seed=9, batch=1, n_requests=40,
            qos=QosTarget(p50_ticks=5.0, p95_ticks=None, p99_ticks=None),
        ),
    ]
    expected = [
        ("e5c4423d150ce66cea2fe630f098308657a3b63050309209e9a79220c401ace7",
         ["p50", "p95", "p95"]),
        ("440431067874fc1c5e293c1228549ac649722f1acf6499d6a24ee03fea168494",
         ["p50", "p50", "p50"]),
    ]
    for spec, (digest, breaches) in zip(specs, expected):
        res = FleetVolume(spec).run(SparePool(1))
        assert res["state"] == "complete"
        assert res["breaker"]["trips"] > 0
        assert res["breaker"]["breaches"] == breaches
        assert res["divergent_blocks"] == 0
        assert tick_digest(res) == digest
