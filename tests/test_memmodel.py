"""Exploration engine tests: model-specific litmus outcomes, witness
containment, oracle agreement under SC, and empirical-order structure."""

import gc
import hashlib
import json
import re
import weakref
from array import array
from itertools import permutations
from types import SimpleNamespace

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from wmtr.events import (
    Inv, OpId, OpObs, ProgObs, ProgStep, Res, StepId, event_to_json,
    observable_of,
)
from wmtr import memmodel, storage
from wmtr.memmodel import (
    BurstTable, ExploreConfig, Model, TraceSet, _build, chaos_outputs,
    covert_ops, enforced_order, enforced_order_of, explore,
)
from wmtr.porder import check_axioms, check_lemma1
from wmtr.program import empty_object, events_of_program, parse
from wmtr.storage import RELAXED, _tset

from conftest import (
    ORDER_PAIRS, check_wellformed, corpus_text, fenced_clients,
    object_clients, relaxed_counter_witness, tso_spinlock_witness,
    writes_client,
)
from oracles import (
    accepts, empirical_pairs_oracle, from_traces, least_refuting_trace,
    materialize, book_specs, observables_oracle, oracle_sc, preorder, sample,
    stepwise_frames,
)


def cfg(model, **kw):
    return ExploreConfig(model=model, **kw)


def load(client, obj=None):
    p = parse(corpus_text(client))
    o = parse(corpus_text(obj)) if obj else empty_object()
    return p, o


SB = """
global x = 0;
global y = 0;
global a = 0;
global b = 0;
thread T1 { x := 1; ra := y; a := ra; }
thread T2 { y := 1; rb := x; b := rb; }
"""

MP = """
global d = 0;
global f = 0;
global r = 0;
thread P { d := 1; f := 1; }
thread C { await (f = 1); rc := d; r := rc; }
"""


@pytest.fixture(scope="module")
def chaos_graph():
    """Chaos-mode graphs at values=1, unreduced as `enforced_order` builds
    them, each built once per module: the fig5 x spinlock_impl graph
    under RELAXED alone takes seconds."""
    built = {}

    def get(client, obj, model):
        key = (client, obj, model)
        if key not in built:
            p, o = load(client, obj)
            built[key] = _build(p, o, cfg(model, values=1), "chaos",
                                reduce=False)
        return built[key]

    return get


def graph_digest(ts):
    """SHA-256 of the canonical serialisation of `ts.graph` renumbered by
    `preorder`, for a trace set or anything else with a `root` and an
    `id -> ((burst, successor id), ...)` mapping as its `graph`: for
    every id in order, its edges in order, each as its burst's event JSON
    and the successor id.  Any moved id or burst changes the digest."""
    memo = {}

    def enc(e):
        s = memo.get(e)
        if s is None:
            s = memo[e] = event_to_json(e)
        return s

    g = preorder(ts).graph
    doc = [(i, [([enc(e) for e in burst], succ) for burst, succ in g[i]])
           for i in range(len(g))]
    return hashlib.sha256(
        json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


def contract_digest(ts):
    """SHA-256 of what a build promises whatever its ids: its observables
    and its `empirical_pairs`, each sorted, events as their JSON."""
    obs = sorted(ts.observables())
    pairs = sorted([event_to_json(a), event_to_json(b)]
                   for a, b in ts.empirical_pairs())
    return hashlib.sha256(
        json.dumps([obs, pairs], separators=(",", ":")).encode()).hexdigest()


def burst_digest(ts):
    """SHA-256 of the burst table of `ts` renumbered by `preorder`: each
    burst's event JSON, in table order."""
    doc = [[event_to_json(e) for e in burst] for burst in preorder(ts).bursts]
    return hashlib.sha256(
        json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


def assert_bursts_carried(ts):
    """Every burst id but the empty burst's labels some edge."""
    assert set(range(1, len(ts.bursts))) <= set(ts.burst_id)


# RELAXED graph digests: the storage encoding is private to `wmtr.storage`, so
# a change to it must leave every id and every burst where it was
CHAOS_DIGESTS = {  # chaos mode, values=1
    ("fig2_client.wm", "fig2_object.wm"):
        "4adb7814fd8c4e9743b2f932d2e7c557ac4f6aba44fdc2537aa82a872427ecdb",
    ("fig4_client.wm", "spinlock_impl.wm"):
        "7c76712fca1acf9eeaf915b8809686fa47550bb1f9629af3c9741d5d703ab18b",
    ("fig5_client.wm", "spinlock_impl.wm"):
        "7495ddc07ea39322e74d18020ccf534709b2da4e149d03d09a03dea9cad0336f",
    ("fig5_notry_client.wm", "spinlock_impl_notry.wm"):
        "d23e02d330351cc2aeefe0019c66344da1e5621c5cc858953ddda3671df8f04a",
    ("fig6_client.wm", "spinlock_impl.wm"):
        "0ccffa172c24ffc5234757038428bd72b16b85a3330b109964c597c78c2e1cfd",
}

OWN_MODE_DIGESTS = {  # the object's own mode, default bounds
    ("fig4_client.wm", "spinlock_spec.wm"):  # 19 states
        "6b4746186902e98e3f0710ace5d750a2176898c4cad63ce1013a1aca21fba84d",
    ("fig4_client.wm", "spinlock_impl.wm"):
        "4d1eadf2227c9cc9fd3b689d1c8d7e8accb8fd2b1fc78caea4860818a8007cb1",
    ("fig5_client.wm", "spinlock_spec.wm"):  # 557 states
        "17b076261c67a272b9aee7a49e0f3ba1ecd6f78cc331ad120a6933885cd9ec58",
    ("fig5_client.wm", "spinlock_impl.wm"):
        "b2843e456729b2eb70b7224e2f3cfccf81f8475b2ebebe6aa4f16b9c9574a3cf",
    ("fig5_notry_client.wm", "spinlock_spec_notry.wm"):  # 115 states
        "458087fffca1850c47cf9ec831658cf8ef752b3090204d876d0516a4a2125809",
    ("fig5_notry_client.wm", "spinlock_impl_notry.wm"):
        "a5b22fe3601952d010b2c01bca2ca7d2ca8f9667489d8debcdd1134523a6ab79",
    ("fig6_client.wm", "spinlock_spec.wm"):  # 63 states
        "daa085f18564b409d0bf3812606653f276c0625b8ed431df9b698ea4dad57788",
    ("fig6_client.wm", "spinlock_impl.wm"):
        "394e9e6974c44d2b775036504e36d37bcd118b007c988ca8394bd9db345c4941",
}


# (graph digest, burst digest) of the RELAXED graph `explore` builds on
# the on-demand storage for each pair above, default bounds; the unreduced
# digests above stay pinned
ON_DEMAND_OWN_MODE_DIGESTS = {
    ("fig4_client.wm", "spinlock_impl.wm"):  # 44 states
        ("947c7d0034829421baabce1122cb4305e25d9c9d4280f66392739adc30c24cd1",
         "8a9a277dfa24a52c849d2e03f20a14ba498e21ed1c38fae295d658d2b8ecdaa0"),
    ("fig4_client.wm", "spinlock_spec.wm"):  # 15 states
        ("dcc6809a8307f7e4dd38cee13c3ffca84cbd3b1f90a1e0a7cb87c3ebec7376dd",
         "8a9a277dfa24a52c849d2e03f20a14ba498e21ed1c38fae295d658d2b8ecdaa0"),
    ("fig5_client.wm", "spinlock_impl.wm"):  # 348 states
        ("91d362ed9e82e6d10d2c88e0cf5ee5d7527b37470f30e1801b7025d6245fc636",
         "9c83fbd0549318904d324d22688035aeeafe9e455afbbf23c5f1a31d0ffcfa51"),
    ("fig5_client.wm", "spinlock_spec.wm"):  # 141 states
        ("e651f6631721f677c7a17d2b9a4bc31cbf2755ac6b515256355ea1341842dbf3",
         "4ab0e4cdeaa991761bfda628711d8b3ba9a9cc6a39cf5d2c395c5af302de3a57"),
    ("fig5_notry_client.wm", "spinlock_impl_notry.wm"):  # 76 states
        ("495bc5b9da6798a91947ca7d7a6eaabda9e5ad36e26b39c22ee43d5b44467a03",
         "499da6189a8b86f4c74a4fd328bea86c3df8b2ad113bb4bd9223ebd3d3ac2735"),
    ("fig5_notry_client.wm", "spinlock_spec_notry.wm"):  # 43 states
        ("391f29416cccd244def7cb8041379ed6bcb070f234b76eb9a248e746718c5113",
         "13df6c65c4c601e32a4a231e030a6971b4c50e115b1e42f1e1f43db4499849ac"),
    ("fig6_client.wm", "spinlock_impl.wm"):  # 412 states
        ("c072b9bebca70495442bab20b7b3084b500f257d450a53c10d5e143930790930",
         "16c5cd24094454d9cff0cb4a7bf669e3592acd170ddcb9ece1ef0db9edcd1b04"),
    ("fig6_client.wm", "spinlock_spec.wm"):  # 55 states
        ("152daba83e86e3b043f704dbd72f5f8380ce8dbf12905f7c80ea045d6da5f35e",
         "7cf03ad91d2f6539cac0092e986305c0d6c7925e36ec0079453a7d813c545611"),
}

# SC and TSO graph digests, keyed (model, client, object): as for RELAXED,
# a change to a storage discipline's encoding must leave them unchanged
SC_TSO_CHAOS_DIGESTS = {  # chaos mode, values=1
    (Model.SC, "fig2_client.wm", "fig2_object.wm"):
        "91c12fe6ca601ddd6202e8247f291e2d08fd935698c69d780edf98ca177e68da",
    (Model.SC, "fig4_client.wm", "spinlock_impl.wm"):
        "99f81c43518dab328a9414497060da055e67238dec583c44eb61d75a775e6e8d",
    (Model.SC, "fig5_client.wm", "spinlock_impl.wm"):
        "2601a6b7ed09e6720b7c3739a9d13e3df1cfb7c8c0736daae16d559e6471a854",
    (Model.SC, "fig5_notry_client.wm", "spinlock_impl_notry.wm"):
        "09fae4171f7d44c7afffc315c669fbf76f5f55f200036e5571a9c87ad1ed8394",
    (Model.SC, "fig6_client.wm", "spinlock_impl.wm"):
        "333bd07d72025f8043a6bcc029f5672f1dc62a1324949a88a15b1242de539741",
    (Model.TSO, "fig2_client.wm", "fig2_object.wm"):
        "ce222db7e265022ee7ae250c82e3182b44c88a9a813460d70bbfa693ef592ad0",
    (Model.TSO, "fig4_client.wm", "spinlock_impl.wm"):
        "3c0ad22b272036912b9e16c148a7707e6bce4018ba6b0693968b4abaa3a0906b",
    (Model.TSO, "fig5_client.wm", "spinlock_impl.wm"):
        "d7b2e8112afbbc48f1ec25082cef7c97f8425526ecd49e313a807b3474906e17",
    (Model.TSO, "fig5_notry_client.wm", "spinlock_impl_notry.wm"):
        "d029c811da33227be7f5a757332c20a87d2507ecba7c2e5954b80e1fb80979ad",
    (Model.TSO, "fig6_client.wm", "spinlock_impl.wm"):
        "1ff32c87752fe80c56eb930894e8fb585957d865836e190aa940ab05c2067364",
}

SC_TSO_OWN_MODE_DIGESTS = {  # the object's own mode, default bounds
    (Model.SC, "fig4_client.wm", "spinlock_spec.wm"):  # 11 states
        "f6b5d799f1173bf4bb07adddf9fa30a83422963e79868bbac0fceda03a685ff3",
    (Model.SC, "fig4_client.wm", "spinlock_impl.wm"):
        "21039cd7c107bbafe8a95be1e0a3d832765d7b7ed6d0c42b16d101b5f5af486a",
    (Model.SC, "fig5_client.wm", "spinlock_spec.wm"):  # 43 states
        "64d79c5f2ba2fe8dd81dc7f031da608a1cf331d90e07e40a82196eed4125e887",
    (Model.SC, "fig5_client.wm", "spinlock_impl.wm"):
        "914045e3dcef5732b300fc2f354c93cf504a3bb0f370da4b3de0237e40053c05",
    (Model.SC, "fig5_notry_client.wm", "spinlock_spec_notry.wm"):  # 20 states
        "09fae4171f7d44c7afffc315c669fbf76f5f55f200036e5571a9c87ad1ed8394",
    (Model.SC, "fig5_notry_client.wm", "spinlock_impl_notry.wm"):
        "f18b9b78841368bf215fecc960aeef5fc7e412f8681239188e52e83b936bc0b5",
    (Model.SC, "fig6_client.wm", "spinlock_spec.wm"):  # 24 states
        "5960967561b86e8803dcfbe84bcc91a50edf87bdfee4d2437d1cfc92f5943dd2",
    (Model.SC, "fig6_client.wm", "spinlock_impl.wm"):
        "9cb436662f6a2a0b748eeb03a8862364501ec0a4b3abd06a498ad4f543f7d2af",
    (Model.TSO, "fig4_client.wm", "spinlock_spec.wm"):  # 15 states
        "dcc6809a8307f7e4dd38cee13c3ffca84cbd3b1f90a1e0a7cb87c3ebec7376dd",
    (Model.TSO, "fig4_client.wm", "spinlock_impl.wm"):
        "947c7d0034829421baabce1122cb4305e25d9c9d4280f66392739adc30c24cd1",
    (Model.TSO, "fig5_client.wm", "spinlock_spec.wm"):  # 75 states
        "2f7a9cc8362a1ef0fc35981260bd755885a3f2aabb0074ba318ea9457f5dfa87",
    (Model.TSO, "fig5_client.wm", "spinlock_impl.wm"):
        "dc582ba59417196097384ce46112a41363b829c8fc25ed3f0f8f56e2dc69f425",
    (Model.TSO, "fig5_notry_client.wm", "spinlock_spec_notry.wm"):  # 32 states
        "b4de738856ff5c39395ceb1249b742caf86eb46f44d92929f029bbb27ac00e51",
    (Model.TSO, "fig5_notry_client.wm", "spinlock_impl_notry.wm"):
        "7c52857d0c5aeec14b0b25211efce2b99855f953bedf6e39037e2a7cf8eb6377",
    (Model.TSO, "fig6_client.wm", "spinlock_spec.wm"):  # 30 states
        "5c38938645a9f6a884e20432018834495b6c24d33120e1c343e507c88b59473c",
    (Model.TSO, "fig6_client.wm", "spinlock_impl.wm"):
        "cb989bda227bc015f87872b2ee9637142f849f841b860ba5765638ad5be1def3",
}

# fig5 x spinlock_impl under TSO with one buffer slot per core: the
# client and the object both block on a full buffer
TSO_FULL_BUFFER_DIGEST = \
    "36bad3f37a19021575146081480d4564127738144979c44abfca214db6293590"

# the builds of the pinned graphs, by name, that the reference digests
# below are taken of
REFERENCE_BUILDS = {
    "sc": lambda p, o: explore(p, o, cfg(Model.SC)),
    "tso": lambda p, o: explore(p, o, cfg(Model.TSO)),
    "tso-buffer-1": lambda p, o: explore(p, o, cfg(Model.TSO, buffer=1)),
    "relaxed": lambda p, o: explore(p, o, cfg(Model.RELAXED)),
    "relaxed-eager": lambda p, o: _build(p, o, cfg(Model.RELAXED), o.kind,
                                         reduce=False),
}

# The implementation graphs pinned above, built under the frame rule
# before merging (`oracles.stepwise_frames`: each register-only
# instruction of an operation is a silent step of its own), keyed
# (build of `REFERENCE_BUILDS`, client, object): their digests before
# merging, which fix the reference that the merged builds are checked
# against
STEPWISE_DIGESTS = {
    ("sc", "fig4_client.wm", "spinlock_impl.wm"):  # 65 states
        "65b2383e305a7ee66192c04b1b7deafa8d4ad3e268539fa55641cc19f8d97d84",
    ("sc", "fig5_client.wm", "spinlock_impl.wm"):  # 97
        "5e6f445b60bb8fdc7e0f95f335d9b4ed3e20fb4b52a8aad19a6a833afc2cfc4c",
    ("sc", "fig5_notry_client.wm", "spinlock_impl_notry.wm"):  # 32
        "6b530346a80147d816269a3b2752b657314c93e2df0215162dfd58bb19ac0493",
    ("sc", "fig6_client.wm", "spinlock_impl.wm"):  # 147
        "e926a1e49285813fed237c9d3d75e64f3738c4750ee233825158f64c2acb4e01",
    ("tso", "fig4_client.wm", "spinlock_impl.wm"):  # 79
        "28acb1effe858c14d33e8cf7d76e76a5018eb936a7a0e7c7df9926f3eda29449",
    ("tso", "fig5_client.wm", "spinlock_impl.wm"):  # 187
        "ff6092a3975372069dee888963ecd6120083b196279b178a98b6de513ee0d7e1",
    ("tso", "fig5_notry_client.wm", "spinlock_impl_notry.wm"):  # 62
        "8ae4a1ec0dbcda00a5fa00506c8166b6ae8719fe652bdde4fa99695b9d02a18a",
    ("tso", "fig6_client.wm", "spinlock_impl.wm"):  # 201
        "6a39a2787c7101fb048a3e55b9accfeadce8e8112ce38ce04db529c3e882f72e",
    ("tso-buffer-1", "fig5_client.wm", "spinlock_impl.wm"):  # 163
        "d056f5b2edbb156197b30e6a89f44d7ce80523a403f75df40a670299aa67c4c2",
    ("relaxed", "fig4_client.wm", "spinlock_impl.wm"):  # 79
        "28acb1effe858c14d33e8cf7d76e76a5018eb936a7a0e7c7df9926f3eda29449",
    ("relaxed", "fig5_client.wm", "spinlock_impl.wm"):  # 386
        "0096536c8c7c7dd84f1436a216ce3a85e8cce7aedb8aad07d49ec26af7854a0d",
    ("relaxed", "fig5_notry_client.wm", "spinlock_impl_notry.wm"):  # 86
        "6926abf80e2df21e290140dabc3e1153a51c36d1db335a5a029481564215f964",
    ("relaxed", "fig6_client.wm", "spinlock_impl.wm"):  # 515
        "c0979d53ed45677c69a66b2eb21fdbf4544b42e974f5e011efa6a958100edb4a",
    ("relaxed-eager", "fig4_client.wm", "spinlock_impl.wm"):  # 93
        "279c4722fa03b1f668058f8b145968f5a9c684b6abdcf17798c6c74a4583feb8",
    ("relaxed-eager", "fig5_client.wm", "spinlock_impl.wm"):  # 2,375
        "08d693c98a90509bb9a1951070ac88ecd22c2cee20a64836ebd76d61f776f849",
    ("relaxed-eager", "fig5_notry_client.wm", "spinlock_impl_notry.wm"):  # 494
        "3d2a7b3bf7f3b5877a9eb36030242d9c330eead63a2c3bd1a0f832069cc1b167",
    ("relaxed-eager", "fig6_client.wm", "spinlock_impl.wm"):  # 975
        "1cab75301babc8600538f4c71e510d4420d8dd9e25f019a7c54905b3ae3d787b",
}

# The specification graphs pinned above, built under the paper's free
# observation placement (`oracles.book_specs`: a response enters a book
# of unobserved responses, each observed by an edge of its own), keyed
# (build of `REFERENCE_BUILDS`, client, object): (graph digest, burst
# digest) of each before specifications observed each response in its
# edge, which fix the reference that the builds above are checked
# against
BOOK_DIGESTS = {
    ("sc", "fig4_client.wm", "spinlock_spec.wm"):  # 15 states
        ("6a7910c339a255c5741eccd03e899f58b2a825197175090bfe8bc62ceefc0b6c",
         "4fe4d3a772b4496d167ee96020e99300df5ae3bb713b172383f8161bbb0c3a49"),
    ("tso", "fig4_client.wm", "spinlock_spec.wm"):  # 21
        ("7cdfe2c3c06c88fb4078dba171e19973e02e8d2e382a8aab99fad6dcddb5be0a",
         "795b860c834bfa9e7969c971e13c790b113333ea0a247f38be5c7c48855e0de7"),
    ("relaxed", "fig4_client.wm", "spinlock_spec.wm"):  # 21
        ("7cdfe2c3c06c88fb4078dba171e19973e02e8d2e382a8aab99fad6dcddb5be0a",
         "795b860c834bfa9e7969c971e13c790b113333ea0a247f38be5c7c48855e0de7"),
    ("relaxed-eager", "fig4_client.wm", "spinlock_spec.wm"):  # 27
        ("6bf8bdb31284be15d29e370cc7c1c1d2ea8648a0c1c3b70af08366d292301063",
         "795b860c834bfa9e7969c971e13c790b113333ea0a247f38be5c7c48855e0de7"),
    ("sc", "fig5_client.wm", "spinlock_spec.wm"):  # 87
        ("ddc211eb6e20495bfd032544eb7d42031b94cca4695d609ee4fe0c294b05a165",
         "f5cc62083612007736d65b7b8b844512c54ce9b9136b7d4404300a218e19b493"),
    ("tso", "fig5_client.wm", "spinlock_spec.wm"):  # 161
        ("0fcde9a31a7ba0f88713d6c34b1616b97031bf8284c16a449a845c8bbdda114e",
         "9d80ece935020abb65ac576e8f9572b29b89bc6993ea6a4e9cf626454e660cc7"),
    ("relaxed", "fig5_client.wm", "spinlock_spec.wm"):  # 292
        ("424ae514617e90517099a3962dfda841fb4a60e04472cc0ea3ccd4dc6e500067",
         "85720a4dc6394b379adc1ea7b7c667070dc7e00357cb33954f0b16e5290e7b2f"),
    ("relaxed-eager", "fig5_client.wm", "spinlock_spec.wm"):  # 1,184
        ("f2b82034e180250e3542b979ddf900292dd9885a04231b851b93a2009220dcc6",
         "85720a4dc6394b379adc1ea7b7c667070dc7e00357cb33954f0b16e5290e7b2f"),
    ("sc", "fig5_notry_client.wm", "spinlock_spec_notry.wm"):  # 50
        ("bb180ba46f3b6faa71811bb0aa62258c053c7501d79853f780e9dbac19fa2339",
         "ec4631f1cdfc3d037aa0383e4634b093e7a6f718ef5a91192e8d4c98d7aca28d"),
    ("tso", "fig5_notry_client.wm", "spinlock_spec_notry.wm"):  # 88
        ("6df3595eaefb5551f8ab9d0aa2e360b081b1288b94aefd0dccbec1a20b1751e7",
         "830380f5cd30c38108e3925589d0f8ccb4b2dae88fb822b4064b6b2ef810f9bb"),
    ("relaxed", "fig5_notry_client.wm", "spinlock_spec_notry.wm"):  # 122
        ("e02149d0280cb3b21a655a57e7522b859470eb0db0d41c219366a79162a18a9e",
         "ab5efe1113322c91987787a7bce7cb577cda87dad76c7cf71dd8b548a702ab7e"),
    ("relaxed-eager", "fig5_notry_client.wm", "spinlock_spec_notry.wm"):  # 370
        ("4fd94f0397bff289acd51fb3a3f74cbd6ea02baa9d6d4160d6f8fc092d474657",
         "ab5efe1113322c91987787a7bce7cb577cda87dad76c7cf71dd8b548a702ab7e"),
    ("sc", "fig6_client.wm", "spinlock_spec.wm"):  # 48
        ("073223c280a9813c1f4c4ee484aa4b40c454b60769050575903dde0c009cb03f",
         "a12a24809ca46721e591c776ac4deb5d0f2026dd1631435c4952b06bcdab694e"),
    ("tso", "fig6_client.wm", "spinlock_spec.wm"):  # 58
        ("19eb1e50649696abdb026b70f7da20655d2f5ec9076dcfc47c549333f01621d1",
         "c43c9502b9d093100049ee0c8f1f2a1dc53d965ad6b71b59689a17cbf4d424d7"),
    ("relaxed", "fig6_client.wm", "spinlock_spec.wm"):  # 121
        ("e65ef8c6a681db1968203942c1e443136c1f5bbfa74e9647ce736daab66429e9",
         "861bc204ce799a97754ee14eebb6beb60e32d2f8614af0c99d9138efc961a940"),
    ("relaxed-eager", "fig6_client.wm", "spinlock_spec.wm"):  # 135
        ("3cc263764c3f1b0ae9cf97a4609631788c7a7bacb7cdcc7f93a549cf52190060",
         "861bc204ce799a97754ee14eebb6beb60e32d2f8614af0c99d9138efc961a940"),
}

# SHA-256 of each build's burst table (`burst_digest`), keyed (model,
# client, object): the table holds the bursts some edge carries, in the
# order edges first carry them, however the engine hands out their ids
BURST_DIGESTS_CHAOS = {  # chaos mode, values=1
    (Model.SC, "fig2_client.wm", "fig2_object.wm"):
        "b7e5c08ebbf4804a49ba130bd2f2ac7389d0d510a28de8e2abbc12114d7ad40f",
    (Model.SC, "fig4_client.wm", "spinlock_impl.wm"):
        "5f2d9c13b058595768687cb4957270b5d061e87aa4eed176f05196b5ce1a5972",
    (Model.SC, "fig5_client.wm", "spinlock_impl.wm"):
        "9e0864609a3707a6fbfd0d0d2f17cd55fc5c2623385d835f268372b4b47d9956",
    (Model.SC, "fig5_notry_client.wm", "spinlock_impl_notry.wm"):
        "93c5a0a54fd81d2cb473a29d7c253e54968bd6c9cdec03f08419bc57658ef3d6",
    (Model.SC, "fig6_client.wm", "spinlock_impl.wm"):
        "ea72b08bcc77fc637149baed28f97dc71cc994566913533becb5f57c7e137ccc",
    (Model.TSO, "fig2_client.wm", "fig2_object.wm"):
        "f74282ab035fc24ffedec2629616d35ab7283385d93f797e279c0abf9981aa76",
    (Model.TSO, "fig4_client.wm", "spinlock_impl.wm"):
        "795b860c834bfa9e7969c971e13c790b113333ea0a247f38be5c7c48855e0de7",
    (Model.TSO, "fig5_client.wm", "spinlock_impl.wm"):
        "63ba67da7e4cd7fca4ebc9b44315b85b80c9e59562515f8f44c83942a0a1c008",
    (Model.TSO, "fig5_notry_client.wm", "spinlock_impl_notry.wm"):
        "830380f5cd30c38108e3925589d0f8ccb4b2dae88fb822b4064b6b2ef810f9bb",
    (Model.TSO, "fig6_client.wm", "spinlock_impl.wm"):
        "af739ed689db818f769d8f10d7258143c139edfe72bd56f2b6300202a75dd148",
    (Model.RELAXED, "fig2_client.wm", "fig2_object.wm"):
        "4dd5ee5c34e1098fb8e212fbede90171deb7668219aef53f347534cbf16c68c6",
    (Model.RELAXED, "fig4_client.wm", "spinlock_impl.wm"):
        "795b860c834bfa9e7969c971e13c790b113333ea0a247f38be5c7c48855e0de7",
    (Model.RELAXED, "fig5_client.wm", "spinlock_impl.wm"):
        "85cb8a6b16a062af8948cb94231ffc393377ef6eb7ea2e4f2cca4c63e3376339",
    (Model.RELAXED, "fig5_notry_client.wm", "spinlock_impl_notry.wm"):
        "ab5efe1113322c91987787a7bce7cb577cda87dad76c7cf71dd8b548a702ab7e",
    (Model.RELAXED, "fig6_client.wm", "spinlock_impl.wm"):
        "70afcb9e6feffd6d339dea1bc4de1dc4e0a07770ba0e807d368eaf097999d96f",
}

BURST_DIGESTS_OWN = {  # the object's own mode, default bounds
    (Model.SC, "fig4_client.wm", "spinlock_impl.wm"):
        "5f2d9c13b058595768687cb4957270b5d061e87aa4eed176f05196b5ce1a5972",
    (Model.SC, "fig4_client.wm", "spinlock_spec.wm"):
        "5f2d9c13b058595768687cb4957270b5d061e87aa4eed176f05196b5ce1a5972",
    (Model.SC, "fig5_client.wm", "spinlock_impl.wm"):
        "0f40576c785fabb861c5f3ebbca4b4902724742060a9232d92309c1d091c0926",
    (Model.SC, "fig5_client.wm", "spinlock_spec.wm"):
        "0f40576c785fabb861c5f3ebbca4b4902724742060a9232d92309c1d091c0926",
    (Model.SC, "fig5_notry_client.wm", "spinlock_impl_notry.wm"):
        "93c5a0a54fd81d2cb473a29d7c253e54968bd6c9cdec03f08419bc57658ef3d6",
    (Model.SC, "fig5_notry_client.wm", "spinlock_spec_notry.wm"):
        "93c5a0a54fd81d2cb473a29d7c253e54968bd6c9cdec03f08419bc57658ef3d6",
    (Model.SC, "fig6_client.wm", "spinlock_impl.wm"):
        "c4dd2ad22176947a656af179d28a765fd44d549bb6ff355ec2df8429a872a6ad",
    (Model.SC, "fig6_client.wm", "spinlock_spec.wm"):
        "c4dd2ad22176947a656af179d28a765fd44d549bb6ff355ec2df8429a872a6ad",
    (Model.TSO, "fig4_client.wm", "spinlock_impl.wm"):
        "8a9a277dfa24a52c849d2e03f20a14ba498e21ed1c38fae295d658d2b8ecdaa0",
    (Model.TSO, "fig4_client.wm", "spinlock_spec.wm"):
        "8a9a277dfa24a52c849d2e03f20a14ba498e21ed1c38fae295d658d2b8ecdaa0",
    (Model.TSO, "fig5_client.wm", "spinlock_impl.wm"):
        "6cd4b52ecba02f2c6d58b0dd79edfd148e60500770cf846ff6ff17c61dc512de",
    (Model.TSO, "fig5_client.wm", "spinlock_spec.wm"):
        "077c4a4e74c111c40cf649d0079c10c005e456691f60a79a7ddd9cfb27445096",
    (Model.TSO, "fig5_notry_client.wm", "spinlock_impl_notry.wm"):
        "864950dda6ff05b70196b7a58cf14fabef8baf3415a46296e45172da39eed27d",
    (Model.TSO, "fig5_notry_client.wm", "spinlock_spec_notry.wm"):
        "2c9a5189e581e669456835ca210304fe5a573841cf92790c9168f3ece439b482",
    (Model.TSO, "fig6_client.wm", "spinlock_impl.wm"):
        "6b62168aae68692ad3aff5833d2e03e159128e166269e7bea67a6d333231270d",
    (Model.TSO, "fig6_client.wm", "spinlock_spec.wm"):
        "fa80215bb7aa7dc386d6efbcbe646b5ddd366f9c3ec361bcf292e66048bddacb",
    (Model.RELAXED, "fig4_client.wm", "spinlock_impl.wm"):
        "8a9a277dfa24a52c849d2e03f20a14ba498e21ed1c38fae295d658d2b8ecdaa0",
    (Model.RELAXED, "fig4_client.wm", "spinlock_spec.wm"):
        "8a9a277dfa24a52c849d2e03f20a14ba498e21ed1c38fae295d658d2b8ecdaa0",
    (Model.RELAXED, "fig5_client.wm", "spinlock_impl.wm"):
        "afad5ad10848b1785606683d79cf5b87ec16bfd743a6b6d318f3b2e18d0f77e6",
    (Model.RELAXED, "fig5_client.wm", "spinlock_spec.wm"):
        "4ab0e4cdeaa991761bfda628711d8b3ba9a9cc6a39cf5d2c395c5af302de3a57",
    (Model.RELAXED, "fig5_notry_client.wm", "spinlock_impl_notry.wm"):
        "6f331ce36611d1b8893ccb840a73911274b4c7f1f27ec2ce59b635e28fbeb8b9",
    (Model.RELAXED, "fig5_notry_client.wm", "spinlock_spec_notry.wm"):
        "13df6c65c4c601e32a4a231e030a6971b4c50e115b1e42f1e1f43db4499849ac",
    (Model.RELAXED, "fig6_client.wm", "spinlock_impl.wm"):
        "895570506a1db76bc8f2cb928161c86efd89409359885a2767deb565389c6c54",
    (Model.RELAXED, "fig6_client.wm", "spinlock_spec.wm"):
        "7cf03ad91d2f6539cac0092e986305c0d6c7925e36ec0079453a7d813c545611",
}


# control-flow shapes the corpus lacks, each a client and an object (None:
# no object); the states after an `if` or a finished block are where a
# change to how control is represented would move ids
SHAPES = {
    # both branches equal: one state after either
    "if-equal-branches": (
        "global x = 0;\nglobal y = 0;\n"
        "thread T0 { if (x = 0) { y := 1; } else { y := 1; } r0 := y; }\n"
        "thread T1 { x := 1; }", None),
    "if-without-else": (
        "global x = 0;\nglobal y = 0;\n"
        "thread T0 { if (x = 1) { y := 1; } y := x; }\n"
        "thread T1 { x := 1; }", None),
    "empty-while-in-loop": (
        "global x = 0;\nglobal y = 0;\n"
        "thread T0 { while (x != 1) { while (y = 0) { } x := x + 1; } }\n"
        "thread T1 { y := 1; }", None),
    "while-first-and-last": (
        "global x = 0;\nglobal y = 0;\n"
        "thread T0 { while (x = 0) { y := 1; } y := 0; "
        "while (y = 0) { fence; } }\n"
        "thread T1 { x := 1; y := 1; }", None),
    # the branches end in different blocks before a common return
    "impl-branch-ends": (
        "global g = 0;\n"
        "thread T0 { r0 := call f(); g := r0; }\n"
        "thread T1 { call f(); }",
        "object impl {\n  var y = 0;\n"
        "  op f() { if (y = 0) { y := 1; } else { y := 1 + 0; } return 1; }\n}"),
    # an operation that runs off its end, there in a finished branch
    "impl-falls-off": (
        "global g = 0;\n"
        "thread T0 { call h(); g := 1; }\n"
        "thread T1 { call h(); }",
        "object impl {\n  var y = 0;\n"
        "  op h() { y := y + 1; if (y = 1) { y := 0; } }\n}"),
    # variables first written in an order other than their names' order:
    # the storage's own steps come out by variable name all the same
    "vars-written-out-of-order": (
        "global a = 0;\nglobal m = 0;\nglobal z = 0;\n"
        "thread T0 { z := 1; a := 1; }\n"
        "thread T1 { r0 := a; m := r0; }", None),
    # the same with a call between the writes: an object variable (own
    # mode) or a virtual one (chaos mode) is written between z and a
    "vars-out-of-order-with-calls": (
        "global a = 0;\nglobal m = 0;\nglobal z = 0;\n"
        "thread T0 { z := 1; call f(); a := 1; }\n"
        "thread T1 { r0 := a; m := r0; }",
        "object impl {\n  var y = 0;\n  op f() { y := 1; }\n}"),
    # an operation whose last write is not its last write to the variable
    # it first wrote, and one whose TAS is followed by a store: the return's
    # observation must ride on the last write of each
    "impl-last-write": (
        "global g = 0;\n"
        "thread T0 { call f(); g := 1; }\n"
        "thread T1 { r1 := call t(); g := r1; }",
        "object impl {\n  var y = 0;\n  var z = 0;\n"
        "  op f() { y := 1; z := 1; y := 0; return 0; }\n"
        "  op t() { r := TAS(y, 0, 1); z := 2; return r; }\n}"),
}

SHAPE_MODELS = {"sc": (Model.SC, {}), "tso-buffer-1": (Model.TSO, {"buffer": 1}),
                "relaxed": (Model.RELAXED, {})}

# (shape, model, mode) -> (graph digest, burst digest), values=1; mode
# "own" is the object's own kind, "impl" for a client without object
SHAPE_DIGESTS = {
    ("if-equal-branches", "sc", "own"):  # 8 states
        ("63cae7dd56789d19e0681a1f9b641b11b8d7219cb3725a14a4c2bb9c61d098fc",
         "2de903e560d1661e9c67bd814f1a99aa414820f5d6e124c15d6757811a34e141"),
    ("if-equal-branches", "sc", "chaos"):  # 8 states
        ("63cae7dd56789d19e0681a1f9b641b11b8d7219cb3725a14a4c2bb9c61d098fc",
         "2de903e560d1661e9c67bd814f1a99aa414820f5d6e124c15d6757811a34e141"),
    ("if-equal-branches", "tso-buffer-1", "own"):  # 18 states
        ("2a3ef7635c354a699fc604860157ddbc7eec12464b45163b0437662596bacb1b",
         "043dd578b49c7588a812d34557786a1ad134a20e5bd1e226bf2c78eb588896c7"),
    ("if-equal-branches", "tso-buffer-1", "chaos"):  # 18 states
        ("2a3ef7635c354a699fc604860157ddbc7eec12464b45163b0437662596bacb1b",
         "043dd578b49c7588a812d34557786a1ad134a20e5bd1e226bf2c78eb588896c7"),
    ("if-equal-branches", "relaxed", "own"):  # 32 states
        ("5474b65057b21bd91452ea54fbb20371f72453e36bec9cb4e28ea6309204bb8d",
         "043dd578b49c7588a812d34557786a1ad134a20e5bd1e226bf2c78eb588896c7"),
    ("if-equal-branches", "relaxed", "chaos"):  # 32 states
        ("5474b65057b21bd91452ea54fbb20371f72453e36bec9cb4e28ea6309204bb8d",
         "043dd578b49c7588a812d34557786a1ad134a20e5bd1e226bf2c78eb588896c7"),
    ("if-without-else", "sc", "own"):  # 10 states
        ("d170662276062953587419082e31ed61c41fd2b36ca38808c1fad56db3657a66",
         "55d1d9d4c9a995150e2e93fd1c6f4c1d5b395f25cfe77e9a9cbd5281ca91d4c6"),
    ("if-without-else", "sc", "chaos"):  # 10 states
        ("d170662276062953587419082e31ed61c41fd2b36ca38808c1fad56db3657a66",
         "55d1d9d4c9a995150e2e93fd1c6f4c1d5b395f25cfe77e9a9cbd5281ca91d4c6"),
    ("if-without-else", "tso-buffer-1", "own"):  # 19 states
        ("2d61acfe11825daf4f8c1335f00c8812db6a5befc9e2a1c3fd243efac98ebd03",
         "5b68965c1b24797596ef5418da2b2d6f6140ab3b4b9d9ba5874f9771ea13f858"),
    ("if-without-else", "tso-buffer-1", "chaos"):  # 19 states
        ("2d61acfe11825daf4f8c1335f00c8812db6a5befc9e2a1c3fd243efac98ebd03",
         "5b68965c1b24797596ef5418da2b2d6f6140ab3b4b9d9ba5874f9771ea13f858"),
    ("if-without-else", "relaxed", "own"):  # 48 states
        ("0ff4b6e9bf71ce5380fc74fc39039e35deb46433ee7fed31c305b5b9cc12f066",
         "d9d777e3d2b36bbb40a361cbce12f9f99b6442729f1d3eb8f314c53d02fe0e16"),
    ("if-without-else", "relaxed", "chaos"):  # 48 states
        ("0ff4b6e9bf71ce5380fc74fc39039e35deb46433ee7fed31c305b5b9cc12f066",
         "d9d777e3d2b36bbb40a361cbce12f9f99b6442729f1d3eb8f314c53d02fe0e16"),
    ("empty-while-in-loop", "sc", "own"):  # 14 states
        ("34bb080a502899080197b6745d894b1336072de97de23d2461e5614964d7b7d4",
         "c10d7eafc0e6c8016f78bdc1494cb74dd60ad38bb0a1e42fdc12a498063fd596"),
    ("empty-while-in-loop", "sc", "chaos"):  # 14 states
        ("34bb080a502899080197b6745d894b1336072de97de23d2461e5614964d7b7d4",
         "c10d7eafc0e6c8016f78bdc1494cb74dd60ad38bb0a1e42fdc12a498063fd596"),
    ("empty-while-in-loop", "tso-buffer-1", "own"):  # 22 states
        ("757bcc4b627d82dd0b5ab46405efe11fce2c9b0e72f214ff298eff0f34c77b8a",
         "f5c97d53bec22b4ca61a883096908640969bdf7b1437f12df669f0c1d9a5b883"),
    ("empty-while-in-loop", "tso-buffer-1", "chaos"):  # 22 states
        ("757bcc4b627d82dd0b5ab46405efe11fce2c9b0e72f214ff298eff0f34c77b8a",
         "f5c97d53bec22b4ca61a883096908640969bdf7b1437f12df669f0c1d9a5b883"),
    ("empty-while-in-loop", "relaxed", "own"):  # 44 states
        ("c869b0f458f5136d93df7059bb4210f04694b88d9ce8a692db1fab1c30e2968e",
         "f5c97d53bec22b4ca61a883096908640969bdf7b1437f12df669f0c1d9a5b883"),
    ("empty-while-in-loop", "relaxed", "chaos"):  # 44 states
        ("c869b0f458f5136d93df7059bb4210f04694b88d9ce8a692db1fab1c30e2968e",
         "f5c97d53bec22b4ca61a883096908640969bdf7b1437f12df669f0c1d9a5b883"),
    ("while-first-and-last", "sc", "own"):  # 53 states
        ("55f54473e7b4fa7d05309acf576c732c2beaaba18842b981cc6654d8715b158d",
         "ccfabed7a7a5cf6f08a5e854c35303ccc2e1fe81cea2eed2bce210f14630cf1c"),
    ("while-first-and-last", "sc", "chaos"):  # 53 states
        ("55f54473e7b4fa7d05309acf576c732c2beaaba18842b981cc6654d8715b158d",
         "ccfabed7a7a5cf6f08a5e854c35303ccc2e1fe81cea2eed2bce210f14630cf1c"),
    ("while-first-and-last", "tso-buffer-1", "own"):  # 105 states
        ("f425d64da9b188daa431ca96d9aae5c0fd313603d55abc802b3ed65568ea4c9a",
         "7b528c3c666a73fc328d40dff4b2127407a7196a870a66c59ab528b90923a3f4"),
    ("while-first-and-last", "tso-buffer-1", "chaos"):  # 105 states
        ("f425d64da9b188daa431ca96d9aae5c0fd313603d55abc802b3ed65568ea4c9a",
         "7b528c3c666a73fc328d40dff4b2127407a7196a870a66c59ab528b90923a3f4"),
    ("while-first-and-last", "relaxed", "own"):  # 828 states
        ("b0b82506eeeac7d373943cee1efc026db8ed8c70f88688aef21ed28fbf90e248",
         "293d80de71e77fbb763fd99a4c50de35cb1e80a2d91768740cf3efd84acd7e96"),
    ("while-first-and-last", "relaxed", "chaos"):  # 828 states
        ("b0b82506eeeac7d373943cee1efc026db8ed8c70f88688aef21ed28fbf90e248",
         "293d80de71e77fbb763fd99a4c50de35cb1e80a2d91768740cf3efd84acd7e96"),
    ("impl-branch-ends", "sc", "own"):  # 35 states
        ("1972b7ecc81a4cd9a4a47763d00768def6f33d130d64f8b24bb832ee696162ea",
         "76daa08b8b626ff5086e1ffd5ffb4c21280e00f763a9d389a41222a656667693"),
    ("impl-branch-ends", "sc", "chaos"):  # 12 states
        ("7110bac2b5594fbd2b9bf758581311e82fc229547e7746423d9e8485517ed7f6",
         "76daa08b8b626ff5086e1ffd5ffb4c21280e00f763a9d389a41222a656667693"),
    ("impl-branch-ends", "tso-buffer-1", "own"):  # 69 states
        ("77da5d115eb89270b3f282c58fa2af0caa6171858d0aafdb8fc443c2d2d118bd",
         "78cba96e5786ee3a4f44d5ee7ba581a17665abcc8186ded86c884c6f94cc75bb"),
    ("impl-branch-ends", "tso-buffer-1", "chaos"):  # 24 states
        ("cf07cf1abf3c266ab530390930f3471aeba09c3c9448287e2f9da6bff0061db8",
         "2af449f143555d3e8852add417bbb74254ff652f6daba45037467fbe02fce2bf"),
    ("impl-branch-ends", "relaxed", "own"):  # 165 states
        ("4b9d195a93074173a90c873c3b81b8b250ef7c7380717331a81b2cff4634bc4f",
         "78cba96e5786ee3a4f44d5ee7ba581a17665abcc8186ded86c884c6f94cc75bb"),
    ("impl-branch-ends", "relaxed", "chaos"):  # 70 states
        ("05fc5017dff880c77ab2e3c475fa6032f13ad99cf25a370951e6f498423ed082",
         "a14a490546f56a7cf2d73edb53ffbb44a91bfd4e95887c8a0b1042fb8c969a9f"),
    ("impl-falls-off", "sc", "own"):  # 51 states
        ("269f866632295e204ab2ef2eb459f3b234e641aa11c5f3e43a55a2d89c8a5457",
         "ea08c13d037100a0c9192dffc256c33b6542c55d85fc8a314cbb8071bf05a833"),
    ("impl-falls-off", "sc", "chaos"):  # 12 states
        ("248972cd587915c95f9842e5c895ec304ae541403ded650643965a50f54f5d1e",
         "ea08c13d037100a0c9192dffc256c33b6542c55d85fc8a314cbb8071bf05a833"),
    ("impl-falls-off", "tso-buffer-1", "own"):  # 165 states
        ("3181ae944b7ff2e9180458f42af7a1f356eb78c8e0e1fc3b42dbad03912b6578",
         "d7501707f1e55fe16b9e46c2f1cb9371eea55e7de382dbf4e1a393d5c009253d"),
    ("impl-falls-off", "tso-buffer-1", "chaos"):  # 24 states
        ("790bc11ed7aaa0cddc16ca7124e678343d25e4b45c8a93bc7368f684335ea02b",
         "2cfbb0396b7fd31b7bfa8418ae474236df59da3447d88bc3ca483a9c249c15e1"),
    ("impl-falls-off", "relaxed", "own"):  # 415 states
        ("deb5094ecbeea1c22ec8f3340b6e6d567cab351b0e08c79c0e4e3ac9701febad",
         "d7501707f1e55fe16b9e46c2f1cb9371eea55e7de382dbf4e1a393d5c009253d"),
    ("impl-falls-off", "relaxed", "chaos"):  # 70 states
        ("225fe99072737b9c304aa914641bd466c353975c8bacc2a6c1a369c9eebe18bc",
         "c8a7878b1a9d49737ed91c2c3f1a0a8f48dfac6c731f31c9c1545d109fd49057"),
    ("vars-written-out-of-order", "sc", "own"):  # 11 states
        ("2b32b22d1b81f9e88a26623123ceece3b7488e77768a80359a3e904171163431",
         "d3a8d603e3ca1e706559e9892824e3f426840eb42fe329bb9ff6af3c5893aba5"),
    ("vars-written-out-of-order", "sc", "chaos"):  # 11 states
        ("2b32b22d1b81f9e88a26623123ceece3b7488e77768a80359a3e904171163431",
         "d3a8d603e3ca1e706559e9892824e3f426840eb42fe329bb9ff6af3c5893aba5"),
    ("vars-written-out-of-order", "tso-buffer-1", "own"):  # 23 states
        ("317c9dbd7d5727180c655bbcf77fa369ec7e68cdde4e2cf01c2ba9b2ba597554",
         "1c3cdf7fe7265cfc2c9dc18db705c4feb25b4f71b1990359aabdf5a4a15c2a78"),
    ("vars-written-out-of-order", "tso-buffer-1", "chaos"):  # 23 states
        ("317c9dbd7d5727180c655bbcf77fa369ec7e68cdde4e2cf01c2ba9b2ba597554",
         "1c3cdf7fe7265cfc2c9dc18db705c4feb25b4f71b1990359aabdf5a4a15c2a78"),
    ("vars-written-out-of-order", "relaxed", "own"):  # 89 states
        ("98c6998732e3ea0a80178c7c33a8ba4641e4eced223639282394610f4f354050",
         "253436dec9cda439ceb73ef6174cefd0f66b6779e98362373db4a0300588b305"),
    ("vars-written-out-of-order", "relaxed", "chaos"):  # 89 states
        ("98c6998732e3ea0a80178c7c33a8ba4641e4eced223639282394610f4f354050",
         "253436dec9cda439ceb73ef6174cefd0f66b6779e98362373db4a0300588b305"),
    ("vars-out-of-order-with-calls", "sc", "own"):  # 20 states
        ("65730bc545b63f54ff3514e623ad43e11d9e12b39df35a9a8d18b7949cf8b2f3",
         "a0ed1f74ce898d25cd57932b5f9428a9d5ed0682c89a6655d7fa88dff8cdecde"),
    ("vars-out-of-order-with-calls", "sc", "chaos"):  # 17 states
        ("544016e404e47fc0fd267599aa3dfd306441bf4d35e371a733bf5a0040cb27f2",
         "a0ed1f74ce898d25cd57932b5f9428a9d5ed0682c89a6655d7fa88dff8cdecde"),
    ("vars-out-of-order-with-calls", "tso-buffer-1", "own"):  # 43 states
        ("18a4b0462ed5e87c1e334975d439b48f4c3f8bbad6f1d76f62bb23f8e1c89af3",
         "f90d751e7556261b5b6cd3df248c4d16a65718f7c87ef85d57ae0a7ef9fbaaa7"),
    ("vars-out-of-order-with-calls", "tso-buffer-1", "chaos"):  # 35 states
        ("349d012e178c6f13ef2172e85e0610d4d99797cd140d395e01b71b958d69b89f",
         "02e67d855d67ec35b88f858c53288cb0dcb9659f798b6fedb3e9ea2f218d8a83"),
    ("vars-out-of-order-with-calls", "relaxed", "own"):  # 317 states
        ("1bbbf85fc2541bee9024400b23f30594550b628a558249009481bd4433810122",
         "48d2beb1df1b621edc1db853cf09c9cdcf9264e08c846c7e7f3916505a620450"),
    ("vars-out-of-order-with-calls", "relaxed", "chaos"):  # 287 states
        ("a22fab365d601defec237cd13ba2879a8be1fdf2328bb14cb0068c7afde7317a",
         "10337435b2afdd771d97a99bd2f2154b5a6b8cb6331aedd1291820f055d26876"),
    ("impl-last-write", "sc", "own"):  # 100 states
        ("fcc8ab03ec82f979ee73abc82cd24774eab6b42ba7b58a756d4467a20d4da465",
         "6a852bf8734f023176e5a255be0ca25db5a22a3c9ddf860e044babe3173b41eb"),
    ("impl-last-write", "sc", "chaos"):  # 25 states
        ("37cb22938103172e176174dcfcb033e8e02b82a27d3a4b49dc41ca3345e0abe2",
         "b020cef41c291d069636ece64861777e3585f513e378bf72086f3ae9b9028de6"),
    ("impl-last-write", "tso-buffer-1", "own"):  # 257 states
        ("9d5cacdfaad8efbc26e4d951b298dd1e325e1266a586e688b8d2f84d1b399e89",
         "7620e9f7ddbb73ffa3a2877ec3d628ded90652622dda5beac20e12e2e3403961"),
    ("impl-last-write", "tso-buffer-1", "chaos"):  # 61 states
        ("ae8691598932a66e1de9153ca7d1827b53a9576edcb41ba95f79cbc4ea526f45",
         "f981e119c05078c35d1064702d48371cc8b386616c12f5898241334457e66862"),
    ("impl-last-write", "relaxed", "own"):  # 1940 states
        ("bb56076325c6e16ef730d32c625f3a6af028a916ceba0f5958de2e6558389295",
         "7620e9f7ddbb73ffa3a2877ec3d628ded90652622dda5beac20e12e2e3403961"),
    ("impl-last-write", "relaxed", "chaos"):  # 418 states
        ("a1d4b6fa25be594e2b1a79c773ea2d103277c8276fea91ebf39d8e08f67ed944",
         "69cc2b56058f476ccbdf4faed47c8b3c4cf1d37d9985f789e9e32867f7f96917"),
}


def build_shape(shape, model, mode, reduce=False):
    client, obj = SHAPES[shape]
    p = parse(client)
    o = parse(obj) if obj else empty_object()
    m, bounds = SHAPE_MODELS[model]
    return _build(p, o, cfg(m, values=1, **bounds),
                  o.kind if mode == "own" else mode, reduce=reduce)


@pytest.mark.parametrize("shape,model,mode", sorted(SHAPE_DIGESTS))
def test_shape_graph_unchanged(shape, model, mode):
    ts = build_shape(shape, model, mode)
    assert (graph_digest(ts), burst_digest(ts)) == \
        SHAPE_DIGESTS[shape, model, mode]


# (shape, "relaxed", "own") -> (graph digest, burst digest) of the graph
# `explore` builds on the on-demand storage, values=1; the unreduced
# graphs above stay pinned
ON_DEMAND_SHAPE_DIGESTS = {
    ("empty-while-in-loop", "relaxed", "own"):  # 32 states
        ("8d40f9da2e01e1681facc9e00561b41cf64afa2753899fc4605999d6a189d624",
         "f5c97d53bec22b4ca61a883096908640969bdf7b1437f12df669f0c1d9a5b883"),
    ("if-equal-branches", "relaxed", "own"):  # 23 states
        ("c50d52ad783e8f01e1eb8b062ec884afee97a7fbca93c3ca1e55a1da4db0fcd6",
         "043dd578b49c7588a812d34557786a1ad134a20e5bd1e226bf2c78eb588896c7"),
    ("if-without-else", "relaxed", "own"):  # 30 states
        ("2f558e792ecf762742ae84246a2a975ae8f8e74b1e3127198c6328afe824a8c3",
         "d9d777e3d2b36bbb40a361cbce12f9f99b6442729f1d3eb8f314c53d02fe0e16"),
    ("impl-branch-ends", "relaxed", "own"):  # 91 states
        ("02bbbd2849fdafaa92b47f2f8725e913336a6b08a08f495d73e9b852ad4de136",
         "e419c1f2531901de77f2e4ae9243d9800799f0bee2e8d1e8e21b4d919acd5222"),
    ("impl-falls-off", "relaxed", "own"):  # 218 states
        ("8bb411354572747911416d1d5a1f636a8b72fe7adf818e0a2f242b03a8374027",
         "48a853f57cfc5a988297048f84665faf18ad3c0c73dc4f7d8063e32790846ee6"),
    ("impl-last-write", "relaxed", "own"):  # 430 states
        ("7107762ddf3a8ad683abed90a7a5d973456c15a49d1536ada05942a71d0f2757",
         "92f0e4077f3e89032880c6b9b84edbcc6e2fd3baf60fc0c5c64d93d02f3e8bcd"),
    ("vars-out-of-order-with-calls", "relaxed", "own"):  # 100 states
        ("7d313c72ce2314a531cc76e5691366450d314545943c6d0404cd5cfc86e834fa",
         "10337435b2afdd771d97a99bd2f2154b5a6b8cb6331aedd1291820f055d26876"),
    ("vars-written-out-of-order", "relaxed", "own"):  # 40 states
        ("e16aa86fa8e61519838c59fd7358b5cbb2e23edc3f58c15d5abb9911ae4cec5b",
         "253436dec9cda439ceb73ef6174cefd0f66b6779e98362373db4a0300588b305"),
    ("while-first-and-last", "relaxed", "own"):  # 554 states
        ("caa130e4cf326550d2eb736c10192fbaa506bfc48262abc7b775aaed83f31b7b",
         "293d80de71e77fbb763fd99a4c50de35cb1e80a2d91768740cf3efd84acd7e96"),
}


@pytest.mark.parametrize("shape,model,mode", sorted(ON_DEMAND_SHAPE_DIGESTS))
def test_shape_graph_unchanged_on_demand(shape, model, mode):
    ts = build_shape(shape, model, mode, reduce=True)
    assert (graph_digest(ts), burst_digest(ts)) == \
        ON_DEMAND_SHAPE_DIGESTS[shape, model, mode]


# (shape, model, mode) -> contract digest, values=1, for every shape, model
# and mode: these hold through any change that only renumbers or merges
# states, where the graph digests above must be re-recorded
SHAPE_CONTRACT_DIGESTS = {
    ("empty-while-in-loop", "sc", "own"):
        "34fba8e3adcd5c51d03a769a2ad3b30415446da0384355b6c12af594fa19c600",
    ("empty-while-in-loop", "sc", "chaos"):
        "34fba8e3adcd5c51d03a769a2ad3b30415446da0384355b6c12af594fa19c600",
    ("empty-while-in-loop", "tso-buffer-1", "own"):
        "00e29589cdb0a3abceeafa67458d98b7121428531fe52e4759d1e6e6888dcfb5",
    ("empty-while-in-loop", "tso-buffer-1", "chaos"):
        "00e29589cdb0a3abceeafa67458d98b7121428531fe52e4759d1e6e6888dcfb5",
    ("empty-while-in-loop", "relaxed", "own"):
        "0c41af8718049ed52240cfa4a9df1a2caa7f41a4c580abfcb4f5ec2957ed41b4",
    ("empty-while-in-loop", "relaxed", "chaos"):
        "0c41af8718049ed52240cfa4a9df1a2caa7f41a4c580abfcb4f5ec2957ed41b4",
    ("if-equal-branches", "sc", "own"):
        "4a84273d3006f315d0859c8341cacaf2e9f37f174616b648535ffd683085b74b",
    ("if-equal-branches", "sc", "chaos"):
        "4a84273d3006f315d0859c8341cacaf2e9f37f174616b648535ffd683085b74b",
    ("if-equal-branches", "tso-buffer-1", "own"):
        "bfa8ac0c9ca4c77bd0ed084edb0bae7ef1aeb653952bd4a02af3aad48a8dce95",
    ("if-equal-branches", "tso-buffer-1", "chaos"):
        "bfa8ac0c9ca4c77bd0ed084edb0bae7ef1aeb653952bd4a02af3aad48a8dce95",
    ("if-equal-branches", "relaxed", "own"):
        "bfa8ac0c9ca4c77bd0ed084edb0bae7ef1aeb653952bd4a02af3aad48a8dce95",
    ("if-equal-branches", "relaxed", "chaos"):
        "bfa8ac0c9ca4c77bd0ed084edb0bae7ef1aeb653952bd4a02af3aad48a8dce95",
    ("if-without-else", "sc", "own"):
        "6f09eee631a019d8540cf4dd07780259e0183e2a77f142b06cc3623afb355a15",
    ("if-without-else", "sc", "chaos"):
        "6f09eee631a019d8540cf4dd07780259e0183e2a77f142b06cc3623afb355a15",
    ("if-without-else", "tso-buffer-1", "own"):
        "429c97acd3307f35ba18f068f13d1c8d8a0c70aff13baa172d397253c04f1cc7",
    ("if-without-else", "tso-buffer-1", "chaos"):
        "429c97acd3307f35ba18f068f13d1c8d8a0c70aff13baa172d397253c04f1cc7",
    ("if-without-else", "relaxed", "own"):
        "6956e15a5be524fc6611377f4f6146d0e5cd49751be7d128141a72ca716cc3cc",
    ("if-without-else", "relaxed", "chaos"):
        "6956e15a5be524fc6611377f4f6146d0e5cd49751be7d128141a72ca716cc3cc",
    ("impl-branch-ends", "sc", "own"):
        "2e1987d8eb227be13f1e07a418bb5f331914628031fb80f83335ac57cdb1354d",
    ("impl-branch-ends", "sc", "chaos"):
        "2e1987d8eb227be13f1e07a418bb5f331914628031fb80f83335ac57cdb1354d",
    ("impl-branch-ends", "tso-buffer-1", "own"):
        "2e1987d8eb227be13f1e07a418bb5f331914628031fb80f83335ac57cdb1354d",
    ("impl-branch-ends", "tso-buffer-1", "chaos"):
        "2e1987d8eb227be13f1e07a418bb5f331914628031fb80f83335ac57cdb1354d",
    ("impl-branch-ends", "relaxed", "own"):
        "72cb8fc9a305669ea43c04636ced8eab65cdd10fe7b8832419ca3d6427dcef24",
    ("impl-branch-ends", "relaxed", "chaos"):
        "72cb8fc9a305669ea43c04636ced8eab65cdd10fe7b8832419ca3d6427dcef24",
    ("impl-falls-off", "sc", "own"):
        "35e1351f3f787e245d5a3c11cd0d6e37e9ef21bf291ef572f5f41fd3a7faec6b",
    ("impl-falls-off", "sc", "chaos"):
        "35e1351f3f787e245d5a3c11cd0d6e37e9ef21bf291ef572f5f41fd3a7faec6b",
    ("impl-falls-off", "tso-buffer-1", "own"):
        "35e1351f3f787e245d5a3c11cd0d6e37e9ef21bf291ef572f5f41fd3a7faec6b",
    ("impl-falls-off", "tso-buffer-1", "chaos"):
        "35e1351f3f787e245d5a3c11cd0d6e37e9ef21bf291ef572f5f41fd3a7faec6b",
    ("impl-falls-off", "relaxed", "own"):
        "b00699dd8aeceb61d2bebe9d938a2193e8020add7f07aa839a30140c9657d09d",
    ("impl-falls-off", "relaxed", "chaos"):
        "b00699dd8aeceb61d2bebe9d938a2193e8020add7f07aa839a30140c9657d09d",
    ("impl-last-write", "sc", "own"):
        "d04d1c3c355a2f5812cc4c144671ff41e4f82642abdcda010129376d76bacd1d",
    ("impl-last-write", "sc", "chaos"):
        "0b637a7776c6bb240101516fa3bf7ed94daab3f3ea1adf3b61fd53456353ff1f",
    ("impl-last-write", "tso-buffer-1", "own"):
        "d04d1c3c355a2f5812cc4c144671ff41e4f82642abdcda010129376d76bacd1d",
    ("impl-last-write", "tso-buffer-1", "chaos"):
        "0b637a7776c6bb240101516fa3bf7ed94daab3f3ea1adf3b61fd53456353ff1f",
    ("impl-last-write", "relaxed", "own"):
        "d3da2d2e6c0038a4f32e46abe3e064f6ed7689b6c4c7c80ac2650d1cc1863b1a",
    ("impl-last-write", "relaxed", "chaos"):
        "20865b35ef4260acfbf8de0373fbe4bd29ec9450288b265f867b15c3e16c66e8",
    ("vars-out-of-order-with-calls", "sc", "own"):
        "14e37c05bc9b7f95ec42b52355bd9639f2d5b775f1099cb0f76898038ae65a86",
    ("vars-out-of-order-with-calls", "sc", "chaos"):
        "14e37c05bc9b7f95ec42b52355bd9639f2d5b775f1099cb0f76898038ae65a86",
    ("vars-out-of-order-with-calls", "tso-buffer-1", "own"):
        "14e37c05bc9b7f95ec42b52355bd9639f2d5b775f1099cb0f76898038ae65a86",
    ("vars-out-of-order-with-calls", "tso-buffer-1", "chaos"):
        "14e37c05bc9b7f95ec42b52355bd9639f2d5b775f1099cb0f76898038ae65a86",
    ("vars-out-of-order-with-calls", "relaxed", "own"):
        "ac3ee618e105d6336f6587210f395d95dd00a8894bb051cafc14f2403817f50d",
    ("vars-out-of-order-with-calls", "relaxed", "chaos"):
        "ac3ee618e105d6336f6587210f395d95dd00a8894bb051cafc14f2403817f50d",
    ("vars-written-out-of-order", "sc", "own"):
        "89c6495f048b237f69ce6a7101d8b3b025f8f00b2407fe886149e0a87f69b674",
    ("vars-written-out-of-order", "sc", "chaos"):
        "89c6495f048b237f69ce6a7101d8b3b025f8f00b2407fe886149e0a87f69b674",
    ("vars-written-out-of-order", "tso-buffer-1", "own"):
        "89c6495f048b237f69ce6a7101d8b3b025f8f00b2407fe886149e0a87f69b674",
    ("vars-written-out-of-order", "tso-buffer-1", "chaos"):
        "89c6495f048b237f69ce6a7101d8b3b025f8f00b2407fe886149e0a87f69b674",
    ("vars-written-out-of-order", "relaxed", "own"):
        "e6d86e840fe7c8faaa96bd03b6268e21b6003d781f4dc4a4853912b383c54166",
    ("vars-written-out-of-order", "relaxed", "chaos"):
        "e6d86e840fe7c8faaa96bd03b6268e21b6003d781f4dc4a4853912b383c54166",
    ("while-first-and-last", "sc", "own"):
        "1d832621a5f714d01dfcd6ff2fd7eb25a24010c6c999e6dce5a266de9309c57f",
    ("while-first-and-last", "sc", "chaos"):
        "1d832621a5f714d01dfcd6ff2fd7eb25a24010c6c999e6dce5a266de9309c57f",
    ("while-first-and-last", "tso-buffer-1", "own"):
        "8b4b1c3af7dec0ebeedb5cec919a23b67ee68ec7f0d9322f6f354ecd9e331e98",
    ("while-first-and-last", "tso-buffer-1", "chaos"):
        "8b4b1c3af7dec0ebeedb5cec919a23b67ee68ec7f0d9322f6f354ecd9e331e98",
    ("while-first-and-last", "relaxed", "own"):
        "59933c21348273bcf029ed1c334ae9bdd4acb8b81cf3ef9e762d217bfd1bb06b",
    ("while-first-and-last", "relaxed", "chaos"):
        "59933c21348273bcf029ed1c334ae9bdd4acb8b81cf3ef9e762d217bfd1bb06b",
}


@pytest.mark.parametrize("shape,model,mode", sorted(SHAPE_CONTRACT_DIGESTS))
def test_shape_contract_unchanged(shape, model, mode):
    assert contract_digest(build_shape(shape, model, mode)) == \
        SHAPE_CONTRACT_DIGESTS[shape, model, mode]


# a reduced build promises what the unreduced one does
@pytest.mark.parametrize("shape,model,mode", sorted(SHAPE_CONTRACT_DIGESTS))
def test_shape_contract_unchanged_reduced(shape, model, mode):
    assert contract_digest(build_shape(shape, model, mode, reduce=True)) == \
        SHAPE_CONTRACT_DIGESTS[shape, model, mode]


# a build per kind of state: RELAXED (where a RELAXED entry overflows at
# every width too narrow for the build), TSO (where a thread's own states
# overflow at the narrowest widths, storage tuples above them) and spec mode
WIDTH_CASES = {
    "relaxed": (SHAPES["while-first-and-last"], Model.RELAXED, {}, "impl"),
    "tso": (SHAPES["impl-falls-off"], Model.TSO, {"buffer": 1}, "impl"),
    "spec": ((corpus_text("fig4_client.wm"), corpus_text("spinlock_spec.wm")),
             Model.TSO, {}, "spec"),
}


@pytest.mark.parametrize("case", sorted(WIDTH_CASES))
def test_ids_that_outgrow_their_field_stop_the_build(case, monkeypatch):
    """Every id a state holds must fit its field: with fields too narrow
    the build stops with an OverflowError naming the table, and every
    build that completes is the full-width build, id for id, so no two
    states share an int."""
    (client, obj), model, bounds, mode = WIDTH_CASES[case]
    p = parse(client)
    o = parse(obj) if obj else empty_object()

    def digests():
        ts = _build(p, o, cfg(model, values=1, **bounds), mode)
        return graph_digest(ts), burst_digest(ts)

    full = digests()
    built = []
    for bits in range(1, 11):
        monkeypatch.setattr(storage, "FIELD_BITS", bits)
        try:
            got = digests()
        except OverflowError as e:
            assert re.fullmatch(rf"more than {1 << bits} distinct [\w ]+: "
                                rf"a state field holds {bits} bits", str(e))
            built.append(False)
        else:
            assert got == full
            built.append(True)
    # refused up to some width, built from there on
    assert built[0] is False and built[-1] is True
    assert built == sorted(built)


# two threads of three local steps each: four own states per thread, and
# sixteen states of the pair
LOCAL_STEPS = """
thread T1 { r1 := 1; r2 := 2; r3 := 3; }
thread T2 { r1 := 1; r2 := 2; r3 := 3; }
"""


def test_each_thread_state_needs_only_its_own_field(monkeypatch):
    """A state holds each thread's own-state id in a field of its own, so
    fields that hold every thread's states suffice, however many
    combinations of them the build reaches: with 2-bit fields, which
    hold four ids, the build is the full-width build, id for id."""
    p = parse(LOCAL_STEPS)

    def digests():
        ts = _build(p, empty_object(), cfg(Model.SC, values=1), "impl")
        return ts.states, graph_digest(ts), burst_digest(ts)

    full = digests()
    assert full[0] == 16
    monkeypatch.setattr(storage, "FIELD_BITS", 2)
    assert digests() == full


def test_bursts_that_outgrow_their_column_stop_the_build(monkeypatch):
    """A burst id must fit the graph's burst column: with ids too narrow
    for the build's seven bursts (six steps and the empty burst) the
    build stops with an OverflowError naming the bursts, and from 3 bits
    on it is the full-width build."""
    p = parse(LOCAL_STEPS)

    def digests():
        ts = _build(p, empty_object(), cfg(Model.SC, values=1), "impl")
        return graph_digest(ts), burst_digest(ts)

    full = digests()
    for bits in (1, 2):
        monkeypatch.setattr(storage, "BURST_BITS", bits)
        with pytest.raises(OverflowError, match=(
                rf"^more than {1 << bits} distinct bursts: a burst id holds "
                rf"{bits} bits$")):
            digests()
    monkeypatch.setattr(storage, "BURST_BITS", 3)
    assert digests() == full


def test_interned_refuses_the_first_id_past_its_field(monkeypatch):
    """Every table a state's fields index (each thread's own states,
    valuations, storage tuples, RELAXED entries) is an
    `Interned`: its ids run from 0 to the field's last value and no
    further."""
    monkeypatch.setattr(storage, "FIELD_BITS", 3)
    table = storage.Interned("things")
    assert [table.id(x) for x in "abcdefgh"] == list(range(8))
    assert table.id("c") == 2
    with pytest.raises(OverflowError, match="^more than 8 distinct things: "
                       "a state field holds 3 bits$"):
        table.id("i")
    assert table.values == list("abcdefgh")


def final_pairs(ts, k1, k2):
    out = set()
    for o in ts.observables():
        d = {f"{th}.{v}": val for th, v, val in o}
        if k1 in d and k2 in d:
            out.add((d[k1], d[k2]))
    return out


class TestConfig:
    def test_model_coerced_from_string(self):
        assert ExploreConfig(model="tso").model is Model.TSO

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            ExploreConfig(model=Model.SC, unroll=0)
        with pytest.raises(ValueError):
            ExploreConfig(model=Model.SC, buffer=0)
        with pytest.raises(ValueError):
            ExploreConfig(model=Model.SC, values=0)

    def test_explore_rejects_invalid_program(self):
        p, o = load("fig4_client.wm")  # calls with no matching ops
        with pytest.raises(ValueError):
            explore(p, o, cfg(Model.SC))


class TestLitmus:
    def test_store_buffering(self):
        p = parse(SB)
        o = empty_object()
        sc = final_pairs(explore(p, o, cfg(Model.SC, values=1)), "T1.a", "T2.b")
        tso = final_pairs(explore(p, o, cfg(Model.TSO, values=1)), "T1.a", "T2.b")
        rx = final_pairs(explore(p, o, cfg(Model.RELAXED, values=1)), "T1.a", "T2.b")
        assert (0, 0) not in sc
        assert (0, 0) in tso and (0, 0) in rx
        assert sc == {(0, 1), (1, 0), (1, 1)}

    def test_message_passing(self):
        p = parse(MP)
        o = empty_object()
        for model, expected in ((Model.SC, {1}), (Model.TSO, {1}),
                                (Model.RELAXED, {0, 1})):
            ts = explore(p, o, cfg(model, values=1))
            got = {dict((f"{t}.{v}", val) for t, v, val in o2).get("C.r")
                   for o2 in ts.observables()}
            got.discard(None)
            assert got == expected, model

    def test_tso_flush_is_fifo(self):
        p = parse(MP)  # d:=1 before f:=1 must reach memory in that order
        ts = explore(p, empty_object(), cfg(Model.TSO, values=1))
        d1 = ("P", "d", 1)
        f1 = ("P", "f", 1)
        assert all(o.index(d1) < o.index(f1)
                   for o in ts.observables() if d1 in o and f1 in o)
        assert not any(o and o[0] == f1 for o in ts.observables())


# the litmus tests of corpus/litmus: the outcome each asks about, as the
# value of each outcome global's last observation, and whether SC, TSO
# and RELAXED allow it, at values=1; the sources of each verdict are in
# the file's header
LITMUS = {
    "sb.wm": ({"a": 0, "b": 0}, (False, True, True)),
    "mp.wm": ({"a": 1, "b": 0}, (False, False, True)),
    "lb.wm": ({"a": 1, "b": 1}, (False, False, False)),
    "wrc.wm": ({"a": 1, "b": 1, "c": 0}, (False, False, True)),
    "iriw.wm": ({"a": 1, "b": 0, "c": 1, "d": 0}, (False, False, True)),
    "sb_fences.wm": ({"a": 0, "b": 0}, (False, False, False)),
    "mp_fences.wm": ({"a": 1, "b": 0}, (False, False, False)),
}


@pytest.mark.parametrize("model,states", [(Model.SC, 2421),
                                          (Model.TSO, 17356)])
def test_iriw2_scale(model, states):
    """IRIW with each variable written twice, at values 2: the figures of
    its header comment.  RELAXED is left out, its observables too many
    to hold as a set."""
    p = parse(corpus_text("litmus/iriw2.wm"))
    ts = explore(p, empty_object(), cfg(model, values=2))
    assert (ts.states, len(ts.observables())) == (states, 39927)


def outcome_allowed(ts, outcome):
    """Whether some observable ends with the value of `outcome` as the
    last observation of each of its globals."""
    return any(all(last.get(g) == v for g, v in outcome.items())
               for last in ({var: val for _, var, val in o}
                            for o in ts.observables()))


GET_CLIENT = "global y = 0;\nthread T1 { r := call get(); y := r; }"
# `get` reads x = 5, which is 1 at values 3, through a TAS and a test
GET_BY = {
    "tas": "object impl {\n  var x = 5;\n"
           "  op get() { rt := TAS(x, 1, 0); return rt; }\n}",
    "test": "object impl {\n  var x = 5;\n"
            "  op get() { if (x = 1) { return 1; } else { return 0; } }\n}",
}


@pytest.mark.parametrize("model", list(Model))
def test_declared_initial_values_are_wrapped_into_the_domain(model):
    p, c = parse(GET_CLIENT), cfg(model, values=3)
    for name, text in GET_BY.items():
        ys = {val for o in explore(p, parse(text), c).observables()
              for _, var, val in o if var == "y"}
        assert ys == {1}, name
    spec = parse(GET_BY["test"].replace("impl", "spec"))
    eng = memmodel.ENGINES["spec"](p, spec, c, memmodel.DISCIPLINES[model])
    eng.root()
    assert eng.valuations.values == [(("x", 1),)]


@pytest.mark.parametrize("name", sorted(LITMUS))
def test_litmus_verdicts(name):
    outcome, verdicts = LITMUS[name]
    p = parse(corpus_text(f"litmus/{name}"))
    assert tuple(
        outcome_allowed(explore(p, empty_object(), cfg(model, values=1)),
                        outcome)
        for model in (Model.SC, Model.TSO, Model.RELAXED)) == verdicts


class TestTraceSet:
    def test_prefix_closed_and_wellformed_samples(self):
        p, o = load("fig5_client.wm", "spinlock_impl.wm")
        ts = explore(p, o, cfg(Model.TSO, values=1))
        for t in sample(ts, 60, seed=3):
            assert check_wellformed(t).ok
            assert accepts(ts, t)
            assert accepts(ts, t[:len(t) // 2])

    def test_contains_rejects_foreign_traces(self):
        p, o = load("fig5_client.wm", "spinlock_impl.wm")
        ts = explore(p, o, cfg(Model.TSO, values=1))
        bogus = (ProgStep(StepId("T1", "z:=1", 0), ("z", 1)),
                 ProgStep(StepId("T1", "z:=1", 1), ("z", 1)))
        assert not accepts(ts, bogus)
        assert not accepts(ts, (Inv(OpId("T9", "acquire", 0)),))

    def test_materialize_refuses_oversized(self):
        p, o = load("fig5_client.wm", "spinlock_impl.wm")
        ts = explore(p, o, cfg(Model.TSO, values=1))
        with pytest.raises(ValueError):
            materialize(ts, max_traces=10)

    def test_materialize_bounds_what_it_holds(self):
        """The suffix sets still waiting for a parent count against
        `max_traces` as well as the union being built.  No state's own
        set outgrows the root's, which holds every trace, so a check of
        each state's union alone would accept this graph at 2,500; the
        live sets hold more than that together on the way."""
        text = ("global x = 0;\nglobal y = 0;\n"
                "thread T0 { x := 1; x := 2; }\nthread T1 { y := 1; y := 2; }")
        ts = _build(parse(text), empty_object(), cfg(Model.RELAXED, values=2),
                    "chaos")
        assert len(materialize(ts)) == 1851
        with pytest.raises(ValueError, match="too large"):
            materialize(ts, max_traces=2_500)

    def test_empirical_pairs_match_definition(self):
        p, o = load("fig2_client.wm", "fig2_object.wm")
        ts = _build(p, o, cfg(Model.TSO, values=1), "chaos")
        mat = materialize(ts)
        definitional = from_traces(ts.universe, mat)
        empirical = frozenset((a, b) for a, b in ts.empirical_pairs()
                              if a in ts.universe and b in ts.universe)
        assert definitional.pairs == empirical


class TestOracle:
    def test_oracle_rejects_control_flow(self):
        p = parse(MP)
        with pytest.raises(ValueError):
            oracle_sc(p, cfg(Model.SC))

    @pytest.mark.parametrize("text", [
        SB,
        "global x = 0;\nthread A { x := 1; }\nthread B { x := 2; }",
        "global x = 0;\nglobal y = 0;\n"
        "thread A { x := 1; y := x + 1; }\nthread B { r := x; y := r; }",
    ])
    def test_engine_matches_oracle(self, text):
        p = parse(text)
        c = cfg(Model.SC, values=2)
        assert materialize(explore(p, empty_object(), c)) == oracle_sc(p, c)


class TestWitnesses:
    def test_tso_spinlock_witness_reachable(self):
        p, o = load("fig5_client.wm", "spinlock_impl.wm")
        ts = explore(p, o, cfg(Model.TSO, values=1))
        assert accepts(ts, tso_spinlock_witness())

    def test_relaxed_counter_witness_reachable(self):
        p, o = load("fig6_client.wm", "spinlock_impl.wm")
        ts = explore(p, o, cfg(Model.RELAXED))
        assert accepts(ts, relaxed_counter_witness())

    def test_tso_witness_not_reachable_under_sc(self):
        p, o = load("fig5_client.wm", "spinlock_impl.wm")
        ts = explore(p, o, cfg(Model.SC, values=1))
        assert not accepts(ts, tso_spinlock_witness())


class TestRefinementObservables:
    def test_spinlock_unsound_under_tso(self):
        p, ispec = load("fig5_client.wm", "spinlock_spec.wm")
        _, impl = load("fig5_client.wm", "spinlock_impl.wm")
        c = cfg(Model.TSO, values=1)
        diff = (explore(p, impl, c).observables()
                - explore(p, ispec, c).observables())
        assert diff == {
            (("T1", "z", 1), ("T3", "w", 0), ("T2", "y", 0)),
            (("T1", "z", 1), ("T2", "y", 0), ("T3", "w", 0)),
        }

    def test_counter_loses_increment_under_relaxed(self):
        p, ispec = load("fig6_client.wm", "spinlock_spec.wm")
        _, impl = load("fig6_client.wm", "spinlock_impl.wm")
        c = cfg(Model.RELAXED)
        diff = (explore(p, impl, c).observables()
                - explore(p, ispec, c).observables())
        assert diff == {
            (("T1", "y", 1), ("T2", "y", 1)),
            (("T2", "y", 1), ("T1", "y", 1)),
        }

    @pytest.mark.parametrize("client", [
        "fig4_client.wm", "fig5_notry_client.wm", "fig6_client.wm"])
    def test_lock_sound_under_tso_without_tryacquire(self, client):
        p, ispec = load(client, "spinlock_spec_notry.wm")
        _, impl = load(client, "spinlock_impl_notry.wm")
        c = cfg(Model.TSO)
        assert (explore(p, impl, c).observables()
                <= explore(p, ispec, c).observables())

    @pytest.mark.parametrize("client,spec,impl", [
        ("fig4_client.wm", "spinlock_spec_notry.wm", "spinlock_impl_notry.wm"),
        ("fig5_client.wm", "spinlock_spec.wm", "spinlock_impl.wm"),
        ("fig6_client.wm", "spinlock_spec.wm", "spinlock_impl.wm"),
    ])
    def test_spinlock_sound_under_sc(self, client, spec, impl):
        p, ispec = load(client, spec)
        _, iimpl = load(client, impl)
        c = cfg(Model.SC)
        assert (explore(p, iimpl, c).observables()
                <= explore(p, ispec, c).observables())

    @pytest.mark.parametrize("model", list(Model))
    def test_mutual_exclusion_in_spec_semantics(self, model):
        # one lock, no release: at most one of the two guarded writes runs
        p, ispec = load("fig4_client.wm", "spinlock_spec.wm")
        for o in explore(p, ispec, cfg(model)).observables():
            keys = {(th, v) for th, v, _ in o}
            assert not {("T1", "y"), ("T2", "z")} <= keys


class TestEnforcedOrder:
    def fig2(self, model, values=3):
        p, o = load("fig2_client.wm", "fig2_object.wm")
        return enforced_order(p, o, cfg(model, values=values))

    def events(self):
        obs_A = OpObs(OpId("T1", "A", 0), 1)
        obs_B = OpObs(OpId("T1", "B", 1), None)
        obs_C = OpObs(OpId("T2", "C", 0), None)
        obs_x = ProgObs(StepId("T1", "x:=rA", 0), "x", 1)
        obs_z = ProgObs(StepId("T1", "z:=1", 0), "z", 1)
        return obs_A, obs_B, obs_C, obs_x, obs_z

    @pytest.mark.parametrize("model", list(Model))
    def test_axioms_and_lemma_hold(self, model):
        po = self.fig2(model)
        assert check_axioms(po).all_hold
        assert check_lemma1(po)

    def test_sc_observations_hug_their_events(self):
        p, o = load("fig2_client.wm", "fig2_object.wm")
        ts = _build(p, o, cfg(Model.SC, values=1), "chaos")
        for t in materialize(ts):
            for i, e in enumerate(t):
                if isinstance(e, ProgObs):
                    assert t[i - 1] == ProgStep(e.step, (e.var, e.value))
                elif isinstance(e, OpObs):
                    assert t[i - 1] == Res(e.op, e.out)

    def test_tso_chain(self):
        po = self.fig2(Model.TSO)
        obs_A, obs_B, obs_C, obs_x, obs_z = self.events()
        assert (obs_A, obs_x) in po.pairs
        assert (obs_x, obs_z) in po.pairs
        assert (obs_z, obs_B) in po.pairs
        assert (obs_B, obs_C) not in po.pairs
        assert (obs_C, obs_B) not in po.pairs

    def test_relaxed_operation_observations_unordered(self):
        po = self.fig2(Model.RELAXED)
        obs_A, obs_B, obs_C, obs_x, obs_z = self.events()
        for a, b in permutations((obs_A, obs_B, obs_C), 2):
            assert (a, b) not in po.pairs
        # same-variable step/observation pairs survive
        assert (ProgStep(StepId("T1", "x:=rA", 0), ("x", 1)), obs_x) in po.pairs

    def test_relaxed_drops_cross_variable_order(self):
        po_tso = self.fig2(Model.TSO)
        po_rx = self.fig2(Model.RELAXED)
        _, _, _, obs_x, obs_z = self.events()
        assert (obs_x, obs_z) in po_tso.pairs
        assert (obs_x, obs_z) not in po_rx.pairs

    @pytest.mark.parametrize("model", list(Model))
    @pytest.mark.parametrize("client,obj", [
        ("fig4_client.wm", "spinlock_spec_notry.wm"),
        ("fig5_client.wm", "spinlock_impl.wm"),
        ("fig6_client.wm", "spinlock_spec.wm"),
    ])
    def test_axioms_across_corpus(self, model, client, obj, chaos_graph):
        po = enforced_order_of(chaos_graph(client, obj, model))
        rep = check_axioms(po)
        assert rep.all_hold, [c.name for c in rep.checks if not c.holds]
        assert check_lemma1(po)

    def test_universe_enumerated_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return events_of_program(*args)

        monkeypatch.setattr("wmtr.memmodel.events_of_program", counted)
        self.fig2(Model.TSO)
        assert len(calls) == 1

    def test_event_outside_universe_raises(self, monkeypatch, chaos_graph):
        """Each distinct burst is checked against the universe once; an
        observation the RELAXED storage emits must still be caught."""
        client, obj = "fig2_client.wm", "fig2_object.wm"
        ts = chaos_graph(client, obj, Model.RELAXED)
        emitted = {e for acts in ts.graph.values()
                   for burst, _ in acts for e in burst}
        dropped = min((e for e in emitted if isinstance(e, ProgObs)),
                      key=event_to_json)

        def short(*args):
            return events_of_program(*args) - {dropped}

        monkeypatch.setattr("wmtr.memmodel.events_of_program", short)
        p, o = load(client, obj)
        with pytest.raises(AssertionError, match=re.escape(
                f"event outside the program universe: {dropped}")):
            _build(p, o, cfg(Model.RELAXED, values=1), "chaos")


class TestStateIds:
    def test_fig5_relaxed_chaos_anchor(self, chaos_graph):
        """The largest graph of the corpus; if these counts drift, the
        engine explores a different program."""
        ts = chaos_graph("fig5_client.wm", "spinlock_impl.wm", Model.RELAXED)
        edges = [burst for acts in ts.graph.values() for burst, _ in acts]
        assert (ts.states, len(edges), sum(1 for b in edges if not b)) == \
            (46979, 258573, 180501)
        assert ts.root == ts.states - 1
        assert sorted(ts.graph) == list(range(ts.states))
        assert all(0 <= s2 < s
                   for s, acts in ts.graph.items() for _, s2 in acts)

    # fig5 x RELAXED is left out: the oracle alone takes about ten seconds
    # there, and the anchor above pins that graph
    @pytest.mark.parametrize("client,obj,model", [
        (client, obj, model) for client, obj in ORDER_PAIRS for model in Model
        if (client, model) != ("fig5_client.wm", Model.RELAXED)])
    def test_empirical_pairs_match_set_oracle(self, client, obj, model):
        p, o = load(client, obj)
        ts = _build(p, o, cfg(model), "chaos")
        assert ts.empirical_pairs() == empirical_pairs_oracle(ts)


@settings(max_examples=20, deadline=None)
@given(object_clients(), st.sampled_from(["own", "chaos"]), st.booleans())
def test_every_edge_leads_to_a_lower_id(case, mode, reduce):
    """The build numbers states in post-order, so the root has the
    highest id and ids downward are the topological order every pass
    walks, for an implementation, a specification and the chaos object,
    on either RELAXED storage."""
    obj, text = case
    p, o = parse(text), parse(corpus_text(obj))
    for model in Model:
        ts = _build(p, o, cfg(model, values=1),
                    o.kind if mode == "own" else mode, reduce=reduce)
        assert ts.root == ts.states - 1
        assert all(s2 < s for s, acts in ts.graph.items() for _, s2 in acts)
        assert list(ts.topo()) == list(range(ts.states - 1, -1, -1))


# an engine's edges, as state -> successors, and whether they close a cycle
STUB_GRAPHS = {
    "self-loop": ({0: [0]}, True),
    "through-the-root": ({0: [1], 1: [2], 2: [0]}, True),
    "below-the-root": ({0: [1, 2], 1: [2], 2: [1]}, True),
    "diamond": ({0: [1, 2], 1: [2], 2: []}, False),
}


@pytest.mark.parametrize("edges,cyclic", STUB_GRAPHS.values(),
                         ids=list(STUB_GRAPHS))
def test_a_cycle_stops_the_build(edges, cyclic, monkeypatch):
    """Every pass assumes the graph has no cycle, so a build whose
    engine closes one fails instead of returning it; a state reached
    again after it got its id is no cycle."""
    class Stub(memmodel._Impl):
        def root(self):
            return 0

        def actions(self, st):
            return [(0, s2) for s2 in edges[st]]

    monkeypatch.setitem(memmodel.ENGINES, "impl", Stub)
    p, o = parse(writes_client(1)), empty_object()
    if cyclic:
        with pytest.raises(AssertionError,
                           match="the exploration graph has a cycle"):
            _build(p, o, cfg(Model.SC), "impl")
    else:
        ts = _build(p, o, cfg(Model.SC), "impl")
        assert dict(ts.graph) == {0: (), 1: (((), 0),),
                                  2: (((), 1), ((), 0))}


ATTACH_OBJECT = """object impl {
  var x = 0;
  var y = 0;
  op f() { x := 1; r := y; return r; }
  op w() { y := 1; }
}"""
ATTACH_CLIENT = "thread T1 { call f(); }\nthread T2 { call w(); }"


class TestGraphIdentity:
    @pytest.mark.parametrize("client,obj", ORDER_PAIRS)
    def test_relaxed_chaos_graph_unchanged(self, client, obj, chaos_graph):
        ts = chaos_graph(client, obj, Model.RELAXED)
        assert graph_digest(ts) == CHAOS_DIGESTS[client, obj]

    @pytest.mark.parametrize("client,obj", sorted(OWN_MODE_DIGESTS))
    def test_relaxed_own_mode_graph_unchanged(self, client, obj):
        p, o = load(client, obj)
        ts = _build(p, o, cfg(Model.RELAXED), o.kind, reduce=False)
        assert graph_digest(ts) == OWN_MODE_DIGESTS[client, obj]

    @pytest.mark.parametrize("client,obj", sorted(ON_DEMAND_OWN_MODE_DIGESTS))
    def test_relaxed_own_mode_on_demand_graph_unchanged(self, client, obj):
        p, o = load(client, obj)
        ts = explore(p, o, cfg(Model.RELAXED))
        assert (graph_digest(ts), burst_digest(ts)) == \
            ON_DEMAND_OWN_MODE_DIGESTS[client, obj]
        assert_bursts_carried(ts)

    @pytest.mark.parametrize("model,client,obj", sorted(SC_TSO_CHAOS_DIGESTS))
    def test_sc_tso_chaos_graph_unchanged(self, model, client, obj,
                                          chaos_graph):
        ts = chaos_graph(client, obj, model)
        assert graph_digest(ts) == SC_TSO_CHAOS_DIGESTS[model, client, obj]

    @pytest.mark.parametrize("model,client,obj", sorted(SC_TSO_OWN_MODE_DIGESTS))
    def test_sc_tso_own_mode_graph_unchanged(self, model, client, obj):
        p, o = load(client, obj)
        ts = explore(p, o, cfg(model))
        assert graph_digest(ts) == SC_TSO_OWN_MODE_DIGESTS[model, client, obj]

    def test_tso_full_buffer_graph_unchanged(self):
        p, o = load("fig5_client.wm", "spinlock_impl.wm")
        ts = explore(p, o, cfg(Model.TSO, buffer=1))
        assert graph_digest(ts) == TSO_FULL_BUFFER_DIGEST

    @pytest.mark.parametrize("build,client,obj", sorted(STEPWISE_DIGESTS))
    def test_stepwise_frames_graph_unchanged(self, build, client, obj):
        p, o = load(client, obj)
        with stepwise_frames():
            ts = REFERENCE_BUILDS[build](p, o)
        assert graph_digest(ts) == STEPWISE_DIGESTS[build, client, obj]

    @pytest.mark.parametrize("build,client,obj", sorted(BOOK_DIGESTS))
    def test_book_specs_graph_unchanged(self, build, client, obj):
        """Under the paper's placement the specification graphs are the
        ones pinned before each response was observed in its edge, and
        they have the same observables as the graphs pinned above, in
        more states."""
        p, o = load(client, obj)
        with book_specs():
            ts = REFERENCE_BUILDS[build](p, o)
        assert (graph_digest(ts), burst_digest(ts)) == \
            BOOK_DIGESTS[build, client, obj]
        assert_bursts_carried(ts)
        now = REFERENCE_BUILDS[build](p, o)
        assert now.observables() == ts.observables()
        assert now.states < ts.states

    @pytest.mark.parametrize("model,client,obj", sorted(BURST_DIGESTS_CHAOS))
    def test_chaos_burst_table_unchanged(self, model, client, obj, chaos_graph):
        ts = chaos_graph(client, obj, model)
        assert burst_digest(ts) == BURST_DIGESTS_CHAOS[model, client, obj]
        assert_bursts_carried(ts)

    @pytest.mark.parametrize("model,client,obj", sorted(BURST_DIGESTS_OWN))
    def test_own_mode_burst_table_unchanged(self, model, client, obj):
        p, o = load(client, obj)
        ts = _build(p, o, cfg(model), o.kind, reduce=False)
        assert burst_digest(ts) == BURST_DIGESTS_OWN[model, client, obj]
        assert_bursts_carried(ts)

    def test_tables_are_per_engine(self):
        """Thread tuples and RELAXED entries are interned per build, so
        no build sees another's ids or memoised moves.  fig4 follows
        fig6 because their RELAXED entries coincide as tuples: with one
        shared table, fig4 would reuse fig6's decoded observations."""
        fig6 = ("fig6_client.wm", "spinlock_impl.wm")
        fig2 = ("fig2_client.wm", "fig2_object.wm")
        fig4 = ("fig4_client.wm", "spinlock_impl.wm")
        for client, obj in (fig6, fig2, fig6, fig4, fig6):
            p, o = load(client, obj)
            ts = _build(p, o, cfg(Model.RELAXED, values=1), "chaos",
                        reduce=False)
            assert graph_digest(ts) == CHAOS_DIGESTS[client, obj]

    def test_no_engine_outlives_its_build(self, monkeypatch):
        """The storage holds the burst table, not the engine, so nothing
        ties an engine into a cycle: reference counting frees it when its
        build returns, with the cyclic collector off."""
        engines = []
        init = memmodel._Engine.__init__

        def tracked(self, *args):
            init(self, *args)
            engines.append(weakref.ref(self))

        monkeypatch.setattr(memmodel._Engine, "__init__", tracked)
        gc.disable()
        try:
            for model in Model:
                for client, obj, mode in (
                        ("fig2_client.wm", "fig2_object.wm", "chaos"),
                        ("fig6_client.wm", "spinlock_impl.wm", "impl"),
                        ("fig6_client.wm", "spinlock_spec.wm", "spec")):
                    p, o = load(client, obj)
                    _build(p, o, cfg(model, values=1), mode)
            assert len(engines) == 9
            assert all(ref() is None for ref in engines)
        finally:
            gc.enable()

    @pytest.mark.parametrize("discipline", [RELAXED, storage.Eager])
    def test_memoised_relaxed_moves_repeat_the_first(self, discipline):
        """`moves` computes the steps of a storage entry once; every
        later call on a storage holding it gives what the first gave."""
        cores = ("c0", "c1", "c2")
        writes = [(core, var, val, StepId(core, f"{var}:={val}", 0))
                  for core, var, val in (("c0", "x", 1), ("c1", "y", 2),
                                         ("c0", "x", 2))]
        written = {ProgObs(sid, var, val) for _, var, val, sid in writes}
        table = BurstTable(frozenset(written))
        mem = discipline(cores, {"x": 0, "y": 0}, 4, table)
        s = mem.initial()
        for core, var, val, sid in writes:
            w = mem.writer(core, var, val, "prog", sid, ProgObs(sid, var, val))
            s = mem.write(s, w)
        seen, stack, emitted, finals = {s}, [s], set(), set()
        while stack:
            u = stack.pop()
            first = mem.moves(u)
            assert mem.moves(u) == first
            if not first:
                finals.add(u)
            for b, u2 in first:
                emitted.update(table.values[b])
                if u2 not in seen:
                    seen.add(u2)
                    stack.append(u2)
        assert emitted == written
        assert finals and all(
            (mem.read(u, c, "x"), mem.read(u, c, "y")) == (2, 2)
            for u in finals for c in cores)

    @pytest.mark.parametrize("reduce", [False, True])
    @pytest.mark.parametrize("case", ["fig5", "read-after-store"])
    def test_relaxed_attach_works_out_each_key_once(self, case, reduce,
                                                    monkeypatch):
        """`attach` works out what it makes of an (entry, operation,
        observation) once per storage, and the graph is that of a storage
        that works it out on every call, id for id.  In the second case
        f's store leaves x's entry the same whichever value of y f then
        returns, so only the observation tells the two apart."""
        if case == "fig5":
            p, o = load("fig5_client.wm", "spinlock_impl.wm")
        else:
            p, o = parse(ATTACH_CLIENT), parse(ATTACH_OBJECT)
        keys, attach = [], RELAXED._attach

        def counted(self, *key):
            keys.append((id(self),) + key)
            return attach(self, *key)

        monkeypatch.setattr(RELAXED, "_attach", counted)
        c = cfg(Model.RELAXED, values=1)
        ts = _build(p, o, c, "impl", reduce=reduce)
        assert keys and len(set(keys)) == len(keys)
        tabled, keys[:] = len(keys), []
        init = RELAXED.__init__

        def forgetful(self, *args):
            init(self, *args)
            self.attached = _Forgetful()

        monkeypatch.setattr(RELAXED, "__init__", forgetful)
        fresh = _build(p, o, c, "impl", reduce=reduce)
        assert len(keys) > tabled
        assert graph_digest(ts) == graph_digest(fresh)
        assert ts.bursts == fresh.bursts

    def test_digest_sees_a_moved_burst(self, chaos_graph):
        ts = chaos_graph("fig2_client.wm", "fig2_object.wm", Model.RELAXED)
        s = next(i for i, acts in ts.graph.items()
                 if len({b for b, _ in acts}) > 1)
        acts = ts.graph[s]
        swapped = dict(ts.graph)
        swapped[s] = acts[1:] + acts[:1]
        assert graph_digest(SimpleNamespace(root=ts.root, graph=swapped)) != \
            CHAOS_DIGESTS["fig2_client.wm", "fig2_object.wm"]


class TestLongRuns:
    def test_contains_follows_long_paths(self):
        # 700 buffered writes and their 700 flushes: a path of 1,400 edges
        ts = explore(parse(writes_client(700)), empty_object(), cfg(Model.TSO))
        s, trace = ts.root, []
        while ts.graph[s]:
            burst, s = ts.graph[s][0]
            trace.extend(burst)
        assert len(trace) == 1400
        assert accepts(ts, trace)
        assert not accepts(ts, tuple(trace[:-2]) + (trace[-1], trace[-2]))

    @pytest.mark.parametrize("model", [Model.SC, Model.TSO])
    def test_contains_agrees_with_the_materialized_set(self, model):
        ts = explore(parse(writes_client(3)), empty_object(),
                     cfg(model, buffer=2))
        traces = materialize(ts)
        assert all(accepts(ts, t) for t in traces)
        events = {e for t in traces for e in t}
        for t in traces:
            for e in events:
                assert accepts(ts, t + (e,)) == (t + (e,) in traces)

    # SB under RELAXED has 27,723 traces: MP keeps the materialized set small
    @pytest.mark.parametrize("text,model", [
        (SB, Model.SC), (SB, Model.TSO), (MP, Model.RELAXED)],
        ids=["sb-sc", "sb-tso", "mp-relaxed"])
    def test_least_refuting_trace_agrees_with_the_materialized_set(
            self, text, model):
        ts = explore(parse(text), empty_object(),
                     cfg(model, values=1, buffer=1))
        least = {}
        for t in sorted(materialize(ts), reverse=True,
                        key=lambda t: (len(t), [event_to_json(e) for e in t])):
            least[observable_of(t)] = t
        for o in ts.observables() - {()}:
            n = len(least[o])
            assert least_refuting_trace(ts, {o}, n) == least[o]
            assert least_refuting_trace(ts, {o}, n - 1) is None


_key_kinds = st.sampled_from([
    st.integers(-3, 3),
    st.text("ab", max_size=2),
    st.tuples(st.sampled_from("cd"), st.text("xy", max_size=2)),
])


STORAGE_CORES = ("c0", "c1", "c2")


def _settled(mem, s):
    """`s` once the storage's own steps have run out, each time the first."""
    while True:
        moves = mem.moves(s)
        if not moves:
            return s
        s = moves[0][1]


@pytest.mark.parametrize("model", list(Model))
def test_tas_on_a_drained_core_is_global_at_once(model):
    """A TAS on a drained core is read by every core at once, leaves every
    core drained and emits nothing, whatever the storage held before."""
    opid = OpId("T1", "f", 0)
    mem = memmodel.DISCIPLINES[model](STORAGE_CORES, {"x": 0}, 4,
                                      BurstTable(frozenset()))
    s = mem.write(mem.initial(), mem.writer("c1", "x", 2, "obj", opid, None))
    s = _settled(mem, s)
    assert mem.fence(s, "c0") == s
    w = mem.writer("c0", "x", 1, "tas", OpId("T0", "t", 0), None)
    assert w.emits == ()
    s = mem.write(s, w)
    assert all(mem.read(s, c, "x") == mem.latest(s, c, "x") == 1
               for c in STORAGE_CORES)
    assert all(mem.fence(s, c) == s for c in STORAGE_CORES)
    assert mem.moves(s) == []


def test_relaxed_attach_rides_on_the_last_write():
    """After one operation writes x twice, its observation rides on the
    second record: it is emitted once, and only when every core reads the
    second value."""
    opid = OpId("T0", "f", 0)
    obs = OpObs(opid, 0)
    table = BurstTable(frozenset({obs}))
    mem = storage.Eager(STORAGE_CORES, {"x": 0}, 4, table)
    s = mem.initial()
    for val in (1, 2):
        w = mem.writer("c0", "x", val, "obj", opid, None)
        s = mem.write(s, w)
    s = mem.attach(s, "c0", w.ref, opid, obs)
    assert s is not None
    seen, stack, emitting = {s}, [s], 0
    while stack:
        u = stack.pop()
        for b, u2 in mem.moves(u):
            if table.values[b]:
                assert table.values[b] == (obs,)
                assert all(mem.read(u, c, "x") == 2 for c in STORAGE_CORES)
                assert not mem.moves(u2)
                emitting += 1
            if u2 not in seen:
                seen.add(u2)
                stack.append(u2)
    assert emitting


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tset_matches_sorting_reference(data):
    keys = data.draw(_key_kinds)
    pairs = tuple(sorted(data.draw(st.dictionaries(keys, st.integers(0, 3),
                                                   max_size=6)).items()))
    key = data.draw(st.one_of(keys, st.sampled_from([k for k, _ in pairs]))
                    if pairs else keys)
    value = data.draw(st.integers(0, 3))
    reference = tuple(sorted(tuple((k, v) for k, v in pairs if k != key)
                             + ((key, value),)))
    assert _tset(pairs, key, value) == reference


class TestChaosHelpers:
    def test_chaos_outputs_narrow(self):
        _, o = load("fig2_client.wm", "spinlock_spec.wm")
        assert chaos_outputs(o.ops["tryAcquire"], 3) == {0, 1}
        assert chaos_outputs(o.ops["release"], 3) == {None}
        _, oi = load("fig2_client.wm", "spinlock_impl.wm")
        assert chaos_outputs(oi.ops["acquire"], 3) == {None}
        assert chaos_outputs(oi.ops["tryAcquire"], 3) == {0, 1}

    def test_chaos_outputs_literal_and_domain(self):
        _, o = load("fig2_client.wm", "fig2_object.wm")
        assert chaos_outputs(o.ops["A"], 3) == {1}
        assert chaos_outputs(o.ops["B"], 3) == {None}

    def test_chaos_outputs_cover_a_reassigned_tas_register(self):
        """A TAS register written again after the TAS is not narrowed to
        {0, 1}: the chaos build offers every response the impl build
        gives."""
        o = parse("object impl {\n  var x = 0;\n"
                  "  op f() { rt := TAS(x, 1, 0); rt := 2; return rt; }\n}")
        p = parse("global g = 0;\nthread T { r := call f(); g := r; }")

        def outputs(ts):
            return {e.out for burst in ts.bursts for e in burst
                    if isinstance(e, Res)}

        for model in Model:
            impl = outputs(explore(p, o, cfg(model)))
            assert impl == {2}
            assert impl <= outputs(_build(p, o, cfg(model), "chaos"))

    def test_covert_requires_no_store_and_no_flow(self):
        p, o = load("fig2_client.wm", "fig2_object.wm")
        assert covert_ops(p, o) == frozenset()  # all three ops write shared
        pure = parse("object impl {\n  op probe() { return 1; }\n}")
        client = parse("global g = 0;\nthread T { r := call probe(); }")
        assert covert_ops(client, pure) == {"probe"}
        leaky = parse("global g = 0;\n"
                      "thread T { r := call probe(); g := r; }")
        assert covert_ops(leaky, pure) == frozenset()
        # the result reaches the store through register copies
        peek = parse("object impl {\n  var x = 0;\n"
                     "  op peek() { r := x; return r; }\n}")
        copied = parse("global g = 0;\n"
                       "thread T { r := call peek(); r2 := r; g := r2; }")
        assert covert_ops(copied, peek) == frozenset()
        # a branch on the result is not a flow
        branch = parse("global g = 0;\n"
                       "thread T { r := call peek(); if (r = 1) { g := 1; } }")
        assert covert_ops(branch, peek) == {"peek"}

    @pytest.mark.parametrize("model", [Model.TSO, Model.RELAXED])
    def test_a_covert_call_is_observed_in_its_response(self, model):
        """In the chaos build a covert operation's response and its
        observation share a burst, so the observation is enforced
        before the store after the branch on its result; when the
        result flows into the store, the observation rides a virtual
        write that the store need not wait for.  Under SC the virtual
        write is visible at once, so only the weaker models tell the
        two apart."""
        o = parse("object impl {\n  var a = 0;\n"
                  "  op peek() { r := a; return r; }\n}")
        opid = OpId("T0", "peek", 0)
        for body, covert in (("if (r1 = 1) { x := 1; }", True),
                             ("x := r1;", False)):
            p = parse("global x = 0;\n"
                      f"thread T0 {{ r1 := call peek(); {body} }}")
            assert covert_ops(p, o) == ({"peek"} if covert else frozenset())
            c = cfg(model, values=1)
            ts = _build(p, o, c, "chaos", reduce=False)
            assert any(Res(opid, v) in burst and OpObs(opid, v) in burst
                       for burst in ts.bursts for v in (0, 1)) == covert
            po = enforced_order(p, o, c)
            stores = [e for e in po.universe
                      if isinstance(e, ProgStep) and e.write is not None]
            assert any((OpObs(opid, v), e) in po.pairs
                       for v in (0, 1) for e in stores) == covert


@settings(max_examples=60, deadline=None)
@given(object_clients())
def test_chaos_outputs_cover_every_response(client):
    """Every response the object itself gives is one the chaos object may
    give; at values=2 a TAS register's {0, 1} is narrower than the
    domain."""
    name, text = client
    p, o = parse(text), parse(corpus_text(name))
    outputs = {op: chaos_outputs(d, 2) for op, d in o.ops.items()}
    for model in Model:
        for burst in explore(p, o, cfg(model, values=2)).bursts:
            for e in burst:
                if isinstance(e, Res):
                    assert e.out in outputs[e.op.call], (model, e)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_straightline_clients_match_oracle(data):
    names = ["x", "y"]
    nthreads = data.draw(st.integers(1, 2))
    lines = [f"global {v} = 0;" for v in names]
    for i in range(nthreads):
        body = []
        for j in range(data.draw(st.integers(0, 3))):
            tgt = data.draw(st.sampled_from(names + [f"r{j}"]))
            src = data.draw(st.sampled_from(
                ["0", "1", names[0], f"{names[0]} + 1", f"{names[1]} + {names[0]}"]))
            body.append(f"{tgt} := {src};")
        lines.append(f"thread T{i} {{ {' '.join(body)} }}")
    p = parse("\n".join(lines))
    c = ExploreConfig(model=Model.SC, values=2)
    assert materialize(explore(p, empty_object(), c)) == oracle_sc(p, c)


# `materialize` is exponential in the client: values=1 keeps most trace
# sets small, and the few it refuses to build are left out, per graph
@settings(max_examples=200, deadline=None)
@given(fenced_clients(loops=True))
def test_graph_passes_match_materialized_traces(text):
    """`empirical_pairs` and `observables` run on the edge arrays, and
    `accepts` on the graph view; each agrees with the explicit trace set
    of the graph."""
    p = parse(text)
    for model in Model:
        for mode in ("chaos", "impl"):
            ts = _build(p, empty_object(), cfg(model, values=1), mode)
            try:
                traces = materialize(ts, max_traces=5_000)
            except ValueError:
                event("trace set too large to materialize")
                continue
            assert ts.empirical_pairs() == empirical_pairs_oracle(ts)
            assert ts.observables() == {observable_of(t) for t in traces}
            assert all(accepts(ts, t) for t in traces)


@settings(max_examples=200, deadline=None)
@given(fenced_clients(loops=True, conds=True))
def test_observables_match_the_suffix_set_oracle(text):
    """The forward pass over interned prefixes and the backward pass over
    per-state suffix sets give the same observables; the oracle stays
    polynomial in the graph where `materialize` would refuse."""
    p = parse(text)
    for model, bounds in ((Model.SC, {}), (Model.TSO, {"buffer": 1}),
                          (Model.RELAXED, {})):
        for mode in ("chaos", "impl"):
            ts = _build(p, empty_object(), cfg(model, values=2, **bounds), mode)
            assert ts.observables() == observables_oracle(ts)


@settings(max_examples=20, deadline=None)
@given(object_clients())
def test_object_observables_match_the_suffix_set_oracle(client):
    p, obj = parse(client[1]), parse(corpus_text(client[0]))
    for model in Model:
        ts = explore(p, obj, cfg(model, values=1, buffer=1))
        assert ts.observables() == observables_oracle(ts)


def test_a_cut_between_two_observations_is_observable():
    """No engine burst carries two program observations, so only this
    hand-built graph pins the cut between them."""
    x1, y1 = (ProgObs(StepId("T", f"{v}:=1", 0), v, 1) for v in "xy")
    ts = TraceSet(1, frozenset(), [(), (x1, y1)], array("i", [0]),
                  array("i", [1]), array("i", [0, 0, 1]))
    want = {(), (("T", "x", 1),), (("T", "x", 1), ("T", "y", 1))}
    assert ts.observables() == observables_oracle(ts) == want


class _Forgetful(dict):
    """A step table that keeps no entry, so every lookup misses."""

    def __setitem__(self, key, value):
        pass


# the tables each kind of engine fills as it builds, at the least: one
# step table holds every thread step, whatever the kind of object
STEP_TABLES = {"impl": {"steps"}, "chaos": {"steps"}, "spec": {"steps"}}


def _build_interpreting_every_step(p, obj, c, mode):
    """`_build` with step tables that keep nothing: every thread step,
    implementation instruction, chaos response and specification body
    is worked out afresh in every state.  Every
    table the engine starts empty is one it fills as it builds, so each
    of them is replaced once the engine is made, and checked to be still
    empty after the build: a table filled other than by item assignment
    would fail the check rather than make the property compare two
    tabled builds."""
    built = []

    class ForgetfulEngine(memmodel.ENGINES[mode]):
        def __init__(self, *args):
            super().__init__(*args)
            tables = {name: _Forgetful() for name, x in vars(self).items()
                      if type(x) is dict and not x}
            vars(self).update(tables)
            built.append(tables)

    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(memmodel.ENGINES, mode, ForgetfulEngine)
        ts = _build(p, obj, c, mode)
    (tables,) = built
    assert STEP_TABLES[mode] <= tables.keys()
    assert not any(tables.values())
    return ts


# the models the step-table properties run under: TSO with a full buffer too
TABLE_MODELS = ((Model.SC, {}), (Model.TSO, {"buffer": 1}),
                (Model.TSO, {"buffer": 4}), (Model.RELAXED, {}))


def assert_tables_change_no_graph(p, obj, c, mode):
    ts = _build(p, obj, c, mode)
    fresh = _build_interpreting_every_step(p, obj, c, mode)
    assert graph_digest(ts) == graph_digest(fresh)
    assert ts.bursts == fresh.bursts


# the step tables key each outcome on the values the step read; a key that
# dropped them would reuse one state's outcome in another
@settings(max_examples=200, deadline=None)
@given(fenced_clients(loops=True, conds=True))
def test_step_tables_change_no_graph(text):
    p = parse(text)
    for model, bounds in TABLE_MODELS:
        for mode in ("chaos", "impl"):
            assert_tables_change_no_graph(p, empty_object(),
                                          cfg(model, values=2, **bounds), mode)


# implementation steps and specification bodies are tabled like client
# steps, on the read values, and the RELAXED builds read on demand, where
# a load's choices are tabled too.  In the example, whether each discarded
# tryAcquire took the lock is in no thread's state, so the release store
# of T0 lands at a position of x's records that the thread tuple does not
# fix, and `attach` must find that record in the state.
@settings(max_examples=60, deadline=None)
@given(object_clients())
@example(("spinlock_impl.wm",
          "global g = 0;\nthread T0 { call tryAcquire(); call release(); }\n"
          "thread T1 { call tryAcquire(); call release(); }"))
def test_object_step_tables_change_no_graph(case):
    obj, text = case
    p, o = parse(text), parse(corpus_text(obj))
    for model, bounds in TABLE_MODELS:
        for mode in ("chaos", o.kind):
            assert_tables_change_no_graph(p, o, cfg(model, values=1, **bounds),
                                          mode)


# two threads that each take a few local steps around a call, so each of
# them stands at one own state in many thread tuples
OWN_STEPS = """
global g = 0;
global h = 0;
thread T1 { ra := 1; rb := ra; g := rb; call tryAcquire(); rc := h; }
thread T2 { ra := 2; h := ra; call release(); rc := g; }
"""


def _interpretations(p, obj, c, mode):
    """What a build that tables nothing interprets in its states: the
    distinct (thread, own state, values read) of the thread steps and,
    for contrast, their distinct (thread tuple, thread, values read);
    the distinct (thread, own state) of the chaos calls and their
    distinct (thread tuple, thread)."""
    steps, steps_in_tuples, calls, calls_in_tuples = set(), set(), set(), set()

    class Recording(memmodel.ENGINES[mode]):
        def actions(self, st):
            # the thread tuple: each thread's own-state id, from its field
            self.at = tuple(st >> shift & self.mask
                            for _, _, shift in self.slots)
            return super().actions(st)

        def _interpret(self, st, *rest):
            th, ts = rest[-2:]
            load, step, seen = super()._interpret(st, *rest)
            if load is not None:  # not a chaos call, recorded below
                read = tuple(seen.items())
                steps.add((th, ts, read))
                steps_in_tuples.add((self.at, th, read))
            return load, step, seen

        def _in_call(self, *rest):
            if mode == "chaos":
                th, ts = rest[-2:]
                calls.add((th, ts))
                calls_in_tuples.add((self.at, th))
            return super()._in_call(*rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(memmodel.ENGINES, mode, Recording)
        _build_interpreting_every_step(p, obj, c, mode)
    return steps, steps_in_tuples, calls, calls_in_tuples


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("mode", ["chaos", "impl"])
def test_a_thread_step_is_interpreted_once_per_own_state(model, mode,
                                                        monkeypatch):
    """A thread's next step depends on its own state and the values it
    reads, not on where the other threads stand: a build runs
    `program.step` once per distinct (thread, own state, values read)
    and works out a chaos call's responses once per (thread, own
    state), however many thread tuples hold that state."""
    p, o = parse(OWN_STEPS), parse(corpus_text("spinlock_impl.wm"))
    c = cfg(model, values=2)
    steps, steps_in_tuples, calls, calls_in_tuples = _interpretations(
        p, o, c, mode)
    counts = {"step": 0, "in_call": 0}

    def counted(name, f):
        def run(*args):
            counts[name] += 1
            return f(*args)
        return run

    monkeypatch.setattr(memmodel, "step", counted("step", memmodel.step))
    monkeypatch.setattr(memmodel._Chaos, "_in_call",
                        counted("in_call", memmodel._Chaos._in_call))
    _build(p, o, c, mode)
    assert counts["step"] == len(steps) < len(steps_in_tuples)
    if mode == "chaos":
        assert counts["in_call"] == len(calls) < len(calls_in_tuples)


def _orders_and_events(text):
    """Per model, from strongest to weakest: the chaos-mode enforced-order
    pairs and the events that occur in some trace."""
    p = parse(text)
    out = []
    for model in (Model.SC, Model.TSO, Model.RELAXED):
        ts = _build(p, empty_object(), cfg(model, values=2), "chaos")
        out.append((enforced_order_of(ts).pairs,
                    {e for burst in ts.bursts for e in burst}))
    return out


# every trace of the stronger model is one of the weaker model, so an order
# the weaker model enforces on an event the stronger one produces holds there
@settings(max_examples=200, deadline=None)
@given(fenced_clients(loops=True))
def test_enforced_pairs_shrink_with_weaker_models(text):
    orders = _orders_and_events(text)
    for (strong, occurs), (weak, _) in zip(orders, orders[1:]):
        assert {(a, b) for a, b in weak if b in occurs} <= strong


def test_enforced_pairs_shrink_strictly():
    """SC orders a write's observation before a later read of another
    variable and TSO does not; TSO orders two writes' observations and
    RELAXED does not."""
    x1 = StepId("T", "x:=1", 0)
    (sc, _), (tso, _), _ = _orders_and_events(
        "global x = 0;\nglobal y = 0;\nthread T { x := 1; r := y; }")
    pair = (ProgObs(x1, "x", 1), ProgStep(StepId("T", "r:=y", 0)))
    assert pair in sc and pair not in tso
    _, (tso, _), (rx, _) = _orders_and_events(
        "global x = 0;\nglobal y = 0;\nthread T { x := 1; y := 1; }")
    pair = (ProgObs(x1, "x", 1), ProgObs(StepId("T", "y:=1", 0), "y", 1))
    assert pair in tso and pair not in rx


# two threads at most: a three-thread client can take a minute under RELAXED
@settings(max_examples=200, deadline=None)
@given(fenced_clients())
def test_observables_grow_with_weaker_models(text):
    p = parse(text)
    sc, tso, rx = (explore(p, empty_object(),
                           ExploreConfig(model=m, values=2)).observables()
                   for m in (Model.SC, Model.TSO, Model.RELAXED))
    assert sc <= tso <= rx


def _observables(text, **bounds):
    return explore(parse(text), empty_object(),
                   ExploreConfig(values=2, **bounds)).observables()


# every run within the smaller bound is a run within the larger one
@settings(max_examples=100, deadline=None)
@given(fenced_clients(loops=True))
def test_observables_grow_with_unroll(text):
    for model in Model:
        assert _observables(text, model=model, unroll=1) <= \
            _observables(text, model=model, unroll=2)


@settings(max_examples=100, deadline=None)
@given(fenced_clients(loops=True))
def test_tso_observables_grow_with_buffer(text):
    assert _observables(text, model=Model.TSO, buffer=1) <= \
        _observables(text, model=Model.TSO, buffer=2)


def test_bounds_properties_are_not_vacuous():
    """A client on which each larger bound adds observables."""
    loop = "global x = 0;\nthread T { while (x != 2) { x := x + 1; } }"
    for model in Model:
        assert _observables(loop, model=model, unroll=1) < \
            _observables(loop, model=model, unroll=2)
    sb = ("global x = 0;\nglobal y = 0;\nglobal z = 0;\nglobal a = 0;\n"
          "global b = 0;\nthread T1 { x := 1; y := 1; r := z; a := r; }\n"
          "thread T2 { z := 1; r2 := x; b := r2; }")
    assert _observables(sb, model=Model.TSO, buffer=1) < \
        _observables(sb, model=Model.TSO, buffer=2)
