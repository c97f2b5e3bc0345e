"""Replay pins for the seeded loss channels.

Every ``(seed, rates)`` pair the fault-injection, stream-model,
self-healing, hub-stats and chaos/loss benchmark suites, the lossy-stream
example and the operations guide hand a
:class:`~repro.stream.fault.LossyTransport` or a
:class:`~repro.stream.fault.GilbertElliottTransport` is driven here with
200 distinct slices through a recording inner transport, and the outcome is
pinned by SHA-256: the delivered byte sequence, the recorded fault indices
and, for the burst channel, the state walk.  A refactor of the channels
must replay every one of these fault patterns exactly.

The digests rest on NumPy's ``Generator.random``/``integers`` streams, so a
NumPy release that changes either stream moves them.
"""

import asyncio
import hashlib
import json

import pytest

from repro.stream.fault import GilbertElliottTransport, LossyTransport

N_SLICES = 200


class RecordingTransport:
    def __init__(self):
        self.slices = []

    async def send(self, data):
        self.slices.append(bytes(data))

    async def recv(self):
        return None

    async def close(self):
        pass


def _slice(index):
    return index.to_bytes(2, "big") * 4


def _digest(value):
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _drive(channel_type, seed, **rates):
    async def scenario():
        inner = RecordingTransport()
        channel = channel_type(inner, seed=seed, **rates)
        for index in range(N_SLICES):
            await channel.send(_slice(index))
        await channel.close()
        return inner.slices, channel

    delivered, channel = asyncio.run(scenario())
    return [data.hex() for data in delivered], channel


# seed, rates, delivered digest, digest of (dropped, truncated, duplicated,
# reordered); the trailing comment gives the four fault counts.
LOSSY_CASES = [
    (3, {"drop_rate": 0.2},
     "8e5600e20421377c8fefd63ae8e82da468f655e1758db46bad07a7d14375ebef",
     "82348e358d11e3e376ce6b16c9f575d75d2540a784c9660a1b5264a2c0467e85"),  # [38, 0, 0, 0]
    (4, {"drop_rate": 0.2},
     "47eb780e1fd25d1194f27f1b1a428be3ab8f745e6ebbaca11cc724967c118576",
     "0e552eaa7ef3ef712e79f9c72a6667d90bdc04cfb10ddf3c9c81d0adc1c2611c"),  # [40, 0, 0, 0]
    (9, {"drop_rate": 1.0},
     "6cf9af43bcdc7a1cb1939bd94e6f57e5ade95c8247cf7de96aa3c396d5ba29d8",
     "152f8d7e55cda75c683a222965297355b81c86e7ea4e4ea19bae8a1c82a4ef4c"),  # [198, 0, 0, 0]
    (5, {"duplicate_rate": 0.3},
     "ff87a3aa2f2122f1ddb6cea0bcc3d93a708166b0f592744c0bd0a5460796024e",
     "bfb4e94ba4b25d8efae33586aed6913631a21403f9e611ace2025379b71ffe52"),  # [0, 0, 62, 0]
    (6, {"reorder_rate": 0.3},
     "99203fc9bb2580e3fe500aa59062dea915e24fe5032012290f83438b04f9a0b1",
     "dd019a789f04a7d8f7107977a1372e058eab37666c341d26b503ef3d0671c348"),  # [0, 0, 0, 54]
    (11, {"drop_rate": 0.15},
     "245183eea12cf3fb1b266fe28a0cd221a20a9b972d75b96dd8df4654376b7b3a",
     "9b06e5b483e6065fda2431e04e9b22ec46f0d22403943333dbea5dd5fd87d0ce"),  # [22, 0, 0, 0]
    (5, {"drop_rate": 0.1},
     "3d4819aea55253b2c0f33b936863fe51ea58af250eea763b5b8e46916aee3275",
     "139df8fd14b738a2a6686f559fdaabc671d08bedd222bdd615c9eed745d12e84"),  # [23, 0, 0, 0]
    (21, {"truncate_rate": 0.15},
     "2bc9251092cce1c9805de03fd5a0a18b6ea881a8c59288de229531fe22e69212",
     "f62426700c2fba45147b586b8bf05849605b907946a4d6aecdd0867e0e95e206"),  # [0, 28, 0, 0]
    (8, {"drop_rate": 0.1},
     "5b6c1e9fd1a2a5fa96a1ca16b134c0041608e134a4ba0609b874d698e025c67f",
     "30244c1d3efbbe2edbe72a3d44b8d99a0f8de5c2c7f7ad31fbfb22af5b082e5e"),  # [22, 0, 0, 0]
    (5, {"drop_rate": 0.2},
     "9d44a558becc878bf4eb6aa9629f31a7ceb9295aa969ec9ac10cc08315ae3058",
     "54338c39bc1f6b79a03d9653a33f7b5f654f474e156795bae85289605283a686"),  # [45, 0, 0, 0]
    (3, {"reorder_rate": 0.3},
     "a3f00debfab194fc28a9eb66f2f2449a05846dd898f3d68ba29ef77b5a46adcd",
     "57d772a940588be582017933be154aaf332214228b63dfd5726c7bca22c4f1e4"),  # [0, 0, 0, 47]
    (41, {"drop_rate": 0.1, "duplicate_rate": 0.1, "reorder_rate": 0.1},
     "051167f294abfc49a1ba449bb09bd41b0e2d438d5c7542c54aa0dfb7e68ade31",
     "a941db5fdf468f1ed21f217054012575f50429ab056e42f97beaec094b7c0164"),  # [14, 0, 19, 25]
    (42, {"drop_rate": 0.1, "duplicate_rate": 0.1, "reorder_rate": 0.1},
     "f01ab64bf0a6e425dc3bd8d153bff574099e9045bb7cdabcd322a859263227e5",
     "1fddd098dce60793b028a340c16f028677f5068fe11b676b0d587a8bc2f679f8"),  # [28, 0, 21, 21]
    (43, {"drop_rate": 0.1, "duplicate_rate": 0.1, "reorder_rate": 0.1},
     "6f009c7207f5e75acbeea9ada0620d41dcbf50709d3acaf89b9c80c1b06a9cdf",
     "6f8b5ddb5179e9f0db2c1ac8bf6a1d9e2ab1b210120e1ac119f8c9cc3f5554f6"),  # [16, 0, 17, 26]
    (33, {"drop_rate": 0.0},
     "0514112e20f464f171818368496eb245d1c0f97e682552008b8a037b36b77d3e",
     "453a39b98df6359822c48cf564842ecf4b8b70a0520a145ccfff84370b3fe687"),  # [0, 0, 0, 0]
    (33, {"drop_rate": 0.15},
     "aff9a275bf6b6c10b91073df078c3024085816678c4a2c5e74c74deee2ed059d",
     "0fc4f99727f7936f9e3705a3c495a847ae38588764c2182410d4576139f35424"),  # [33, 0, 0, 0]
    (33, {"drop_rate": 0.4},
     "2d56756961f24001201f6cbee92362e288cbc5a5e9e2ce476e250394b276e135",
     "93ba8ad96ca6e3cf66d229c1277bcfe2366f827ac3489d60c5c46b19cec5bc65"),  # [79, 0, 0, 0]
    (13, {"drop_rate": 0.12},
     "7aac7cb72d27ab65b762f8568e8efe0109484d2cf1045a855712d4fc37c69d24",
     "e6bd58b9539312d9d9ccaca6e27ef613289f58539c9451cd3555ca7165717ef1"),  # [14, 0, 0, 0]
    (21, {"drop_rate": 0.25},
     "f7c652343c5c50ec9c0df11a015f5b292245f73748ca95d809ead0a83d438339",
     "ceb7402f8e2ddb5384fcfacb8ebb7016f93f9944bb32f055eb448eac991ee249"),  # [51, 0, 0, 0]
    (26, {"drop_rate": 0.2},
     "ef003174ab20b3e49c08e28be9632f4f9c4a66948127a1d3e09b98a766aa5ca6",
     "becadd1e5cb7d5803905ee41e35b0111d455176cd1e9d32ad8fb3bd326145557"),  # [44, 0, 0, 0]
]

# seed, delivered digest, digest of the dropped indices, digest of the state
# trace, n_bursts.  Every caller passes only the seed.
BURST_CASES = [
    (4,
     "ac345d24073c3fbbbec0ed80356f6886f505db9b1d00485d6106cbbcdcc376f9",
     "6353fa31c9d62dfd05b0d2008d0a7acdb6174fbf72023f465af9dcfd6f31f4b1",
     "55c5868729c8a5af878e2b6f9d5c405125f9905ecc4155a32c8022211868ae68",
     6),  # 18 dropped
    (13,
     "c4e84dade556184c6576e305a111946c9795560a76471ce15e02fc0ab8aa3f89",
     "e8a6c52fb6d86aaf78c05855a4dd30e5d887e8c0c96a90b3d78f5d46ef4f717c",
     "de08aebdadfbae5ee5ca820a2f81908915406cb877d3e2261ec6ed95d1555926",
     9),  # 19 dropped
    (21,
     "36fbab3b04072cbf90cdd65cd31e2f1943d98ae7452270b9ef87a0d4403c5d2e",
     "2c6d36d9c267e773010acdf1a600da7b6bcbbaba4f29d35f52dd3a7384fc781c",
     "0450bdfad955a432379f81226d830003fff5d3463badff50741dfb44704ea060",
     11),  # 18 dropped
]


@pytest.mark.parametrize(
    "seed, rates, delivered_digest, faults_digest",
    LOSSY_CASES,
    ids=[f"seed{case[0]}-" + "-".join(f"{k}{v}" for k, v in case[1].items())
         for case in LOSSY_CASES],
)
def test_lossy_transport_replays(seed, rates, delivered_digest, faults_digest):
    delivered, channel = _drive(LossyTransport, seed, **rates)
    faults = [channel.dropped, channel.truncated, channel.duplicated, channel.reordered]
    assert _digest(delivered) == delivered_digest
    assert _digest(faults) == faults_digest


@pytest.mark.parametrize(
    "seed, delivered_digest, dropped_digest, state_digest, n_bursts",
    BURST_CASES,
    ids=[f"seed{case[0]}" for case in BURST_CASES],
)
def test_burst_channel_replays(
    seed, delivered_digest, dropped_digest, state_digest, n_bursts
):
    delivered, channel = _drive(GilbertElliottTransport, seed)
    assert _digest(delivered) == delivered_digest
    assert _digest(channel.dropped) == dropped_digest
    assert _digest(channel.state_trace) == state_digest
    assert channel.n_bursts == n_bursts
