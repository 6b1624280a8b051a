"""Unit tests of the recovery manager's rules (the threshold book):
threshold ingestion, floors, pins and global-minimum computation, driven
with plain data -- no kernel, no network."""

from repro.config import RecoverySettings
from repro.core.tracking import FAILED, RECOVERING, ThresholdBook, Tracked


def make_book():
    return ThresholdBook(RecoverySettings())


def server_report(server, tp, t, inc=None):
    data = {"tp": tp, "t": t}
    if inc is not None:
        data["inc"] = inc
    return [f"/recovery/servers/{server}"], [{"data": data}]


class TestTracked:
    def test_effective_without_floors(self):
        entry = Tracked(50, 0.0)
        assert entry.effective() == 50

    def test_floor_caps_effective(self):
        entry = Tracked(50, 0.0)
        entry.floors["r1"] = 30
        entry.floors["r2"] = 40
        assert entry.effective() == 30
        del entry.floors["r1"]
        assert entry.effective() == 40
        del entry.floors["r2"]
        assert entry.effective() == 50

    def test_floor_above_threshold_is_harmless(self):
        entry = Tracked(20, 0.0)
        entry.floors["r"] = 90
        assert entry.effective() == 20


class TestGlobals:
    def test_global_tf_is_min_over_clients(self):
        book = make_book()
        book.clients["a"] = Tracked(10, 0.0)
        book.clients["b"] = Tracked(7, 0.0)
        book.recompute_globals()
        assert book.global_tf == 7

    def test_global_tf_monotonic(self):
        book = make_book()
        book.clients["a"] = Tracked(10, 0.0)
        book.recompute_globals()
        assert book.global_tf == 10
        # A later, lower min (e.g. a fresh client that registered with the
        # published global) must not drag the global backwards.
        book.clients["b"] = Tracked(3, 0.0)
        book.recompute_globals()
        assert book.global_tf == 10

    def test_global_tp_respects_failed_server_pin(self):
        book = make_book()
        book.servers["s1"] = Tracked(100, 0.0)
        dead = Tracked(40, 0.0)
        dead.status = FAILED
        book.servers["s2"] = dead
        book.recompute_globals()
        assert book.global_tp == 40  # pinned until its regions recover

    def test_global_tp_respects_replay_floor(self):
        book = make_book()
        book.servers["s1"] = Tracked(100, 0.0)
        with book.replay_floor("s1", "region-x", 25):  # replay in flight
            book.recompute_globals()
            assert book.global_tp == 25
        assert book.servers["s1"].floors == {}

    def test_no_components_leave_globals_unchanged(self):
        book = make_book()
        book.global_tf = 5
        book.global_tp = 4
        book.recompute_globals()
        assert (book.global_tf, book.global_tp) == (5, 4)

    def test_truncation_point_is_global_tp_not_tf(self):
        book = make_book()
        book.clients["c"] = Tracked(90, 0.0)
        book.servers["s"] = Tracked(30, 0.0)
        book.recompute_globals()
        assert book.truncation_point == book.global_tp == 30


class TestIngestion:
    def test_client_heartbeat_updates_live_entry(self):
        book = make_book()
        new = book.ingest_clients(
            ["/recovery/clients/c1"], [{"data": {"tf": 12, "t": 1.0}}], 1.0
        )
        assert new == ["c1"]  # a registration: the host lifts any old fence
        assert book.clients["c1"].threshold == 12
        new = book.ingest_clients(
            ["/recovery/clients/c1"], [{"data": {"tf": 20, "t": 2.0}}], 2.0
        )
        assert new == []
        assert book.clients["c1"].threshold == 20

    def test_deleted_znode_unregisters_live_client(self):
        book = make_book()
        book.clients["c1"] = Tracked(5, 0.0)
        book.ingest_clients([], [], 1.0)
        assert "c1" not in book.clients

    def test_recovering_client_is_not_unregistered_by_absence(self):
        book = make_book()
        entry = Tracked(5, 0.0)
        entry.status = RECOVERING
        book.clients["c1"] = entry
        book.ingest_clients([], [], 1.0)
        assert "c1" in book.clients  # frozen until its replay completes

    def test_server_alert_recorded(self):
        book = make_book()
        book.ingest_servers(
            ["/recovery/servers/rs0"],
            [{"data": {"tp": 3, "t": 1.0, "alert": 999}}],
            1.0,
        )
        assert book.alerts and book.alerts[0]["component"] == "rs0"

    def test_failed_server_ignores_late_heartbeats(self):
        book = make_book()
        dead = Tracked(40, 0.0)
        dead.status = FAILED
        book.servers["rs0"] = dead
        book.ingest_servers(*server_report("rs0", 99, 5.0), 5.0)
        assert book.servers["rs0"].threshold == 40  # stays pinned

    def test_overdue_client_is_marked_recovering_once(self):
        book = make_book()
        book.ingest_clients(
            ["/recovery/clients/c1"], [{"data": {"tf": 1, "t": 0.0}}], 0.0
        )
        assert book.overdue_clients(2.9) == []
        assert book.overdue_clients(3.1) == ["c1"]
        assert book.clients["c1"].status == RECOVERING
        assert book.overdue_clients(9.0) == []
        assert book.live_clients() == []

    def test_stale_znode_of_an_unknown_server_is_skipped(self):
        # Heartbeat older than interval * missed limit (3 s): a corpse
        # awaiting session expiry, not a live server.
        book = make_book()
        book.ingest_servers(*server_report("rs0", 10, 1.0, inc=1), 4.5)
        assert "rs0" not in book.servers
        book.ingest_servers(*server_report("rs0", 10, 2.0, inc=1), 4.5)
        assert book.servers["rs0"].threshold == 10


class TestServerFailure:
    def test_reincarnation_between_polls_leaves_a_fallen_floor(self):
        book = make_book()
        book.ingest_servers(*server_report("rs0", 30, 1.0, inc=1), 1.0)
        book.ingest_servers(*server_report("rs0", 70, 2.0, inc=2), 2.0)
        assert book.fallen == {"rs0": 30}
        assert book.servers["rs0"].threshold == 70  # the fresh incarnation
        book.recompute_globals()
        assert book.global_tp == 30  # the floor holds T_P
        tp, fresh, dropped = book.server_failed("rs0", ["t,a"], None, 2.5)
        # The late hook reports the fallen incarnation's death: its lower
        # T_P is the replay's start, and the floor is consumed.
        assert (tp, fresh, dropped) == (30, ["t,a"], [])
        assert book.fallen == {}
        assert book.pending_regions == {"t,a": ("rs0", 30)}

    def test_vanished_znode_leaves_a_fallen_floor(self):
        book = make_book()
        book.ingest_servers(*server_report("rs0", 30, 1.0, inc=1), 1.0)
        book.ingest_servers([], [], 2.0)
        assert "rs0" not in book.servers
        assert book.fallen == {"rs0": 30}

    def test_pin_transfers_on_a_cascading_failure(self):
        book = make_book()
        book.servers["rs0"] = Tracked(40, 0.0)
        book.servers["rs1"] = Tracked(60, 0.0)
        assert book.server_failed("rs0", ["t,a"], None, 1.0) == (40, ["t,a"], [])
        # t,a failed over to rs1, which died before its replay finished:
        # the pin moves to rs1 and keeps rs0's lower T_P; rs0 pins nothing
        # more and leaves the book.
        assert book.server_failed("rs1", ["t,a", "t,b"], None, 2.0) == (60, ["t,b"], ["rs0"])
        assert book.pending_regions == {"t,a": ("rs1", 40), "t,b": ("rs1", 60)}
        assert list(book.servers) == ["rs1"]
        # The replay rs0 started no longer owns the pin.
        assert not book.unpin("t,a", "rs0")
        assert book.unpin("t,a", "rs1")
        assert not book.release("t,a", "rs1")  # t,b still pinned
        assert book.unpin("t,b", "rs1")
        assert book.release("t,b", "rs1")
        assert book.servers == {}

    def test_failed_server_leaves_at_its_last_release_not_its_last_unpin(self):
        # Two replays finish together: both pins clear before either
        # marker delete returns; the server leaves with the second release.
        book = make_book()
        book.servers["rs0"] = Tracked(40, 0.0)
        book.server_failed("rs0", ["t,a", "t,b"], None, 1.0)
        assert book.unpin("t,a", "rs0") and book.unpin("t,b", "rs0")
        assert book.pending_regions == {}
        assert not book.release("t,a", "rs0")
        assert book.servers["rs0"].status == FAILED
        assert book.release("t,b", "rs0")
        assert book.servers == {}

    def test_failed_server_hosting_nothing_leaves_at_once(self):
        book = make_book()
        book.global_tp = 12
        assert book.server_failed("rs9", [], None, 1.0) == (12, [], ["rs9"])
        assert book.servers == {}

    def test_repeated_failover_id_is_applied_once(self):
        book = make_book()
        book.servers["rs0"] = Tracked(40, 0.0)
        assert book.server_failed("rs0", ["t,a"], 7, 1.0) == (40, ["t,a"], [])
        assert book.unpin("t,a", "rs0") and book.release("t,a", "rs0")
        # A delayed copy of the same failover's hook: applying it would
        # re-pin t,a with no replay coming.
        assert book.server_failed("rs0", ["t,a"], 7, 2.0) is None
        assert book.pending_regions == {} and book.servers == {}
        # A later failover of the same address is new.
        assert book.server_failed("rs0", ["t,a"], 8, 3.0) is not None

    def test_restore_pins_from_markers(self):
        book = make_book()
        markers = [
            {"data": {"region": "t,a", "failed_server": "rs0", "tp": 40}},
            None,  # deleted between the listing and the read
            {"data": {"region": "t,b", "failed_server": "rs0", "tp": 35}},
        ]
        book.restore_pins(markers, 3.0)
        assert book.pending_regions == {"t,a": ("rs0", 40), "t,b": ("rs0", 35)}
        assert book.servers["rs0"].status == FAILED
        assert book.servers["rs0"].threshold == 35
        assert book.unpin("t,a", "rs0") and not book.release("t,a", "rs0")
        assert book.unpin("t,b", "rs0") and book.release("t,b", "rs0")

    def test_status_lists_thresholds_pins_and_recoveries(self):
        book = make_book()
        book.clients["c1"] = Tracked(5, 0.0)
        book.servers["rs0"] = Tracked(40, 0.0)
        book.server_failed("rs0", ["t,a"], None, 1.0)
        assert book.status() == {
            "global_tf": 0,
            "global_tp": 0,
            "clients": {"c1": 5},
            "servers": {"rs0": 40},
            "pending_regions": {"t,a": ("rs0", 40)},
            "recovering": ["rs0"],
            "alerts": 0,
        }
