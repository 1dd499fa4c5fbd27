//! Old seeds replay unchanged: `replay_digest` over seeds 0..64 of the seven
//! historical modes. The draws were first pinned from the seven
//! `run_*_case` functions before the harness rewrite; the tables were
//! recomputed once when the digest moved from `Debug` text to a value
//! encoding of what a case executes, at the commit before the four idle
//! knobs (cache prefetch, priority admission, flight-recorder sizes, WAL
//! page) were deleted. Plain, faults, recovery and cache draw nothing
//! beyond the plan, so they share one row.

use rodb_fuzz::{replay_digest, Mode};

#[rustfmt::skip]
const PLAN_ONLY: [u64; 64] = [
    0xac09b8e4093addb4, 0xe70bb5ff178a35f9, 0xc8eef880f5306b15, 0xaeefffa2a5e893e8,
    0xfb28c290c2160215, 0x4417ea306e88a9f3, 0xc250ab6f45c99e66, 0x11cb2b7f96b84c1f,
    0x4a8eef619adf6e0c, 0x35ce89ec7bef1bce, 0x164604d5c9f9fc36, 0xc1dc76ad1ea2506c,
    0xb7d5fc7c1904e52c, 0xf409c6b75b6ebcfa, 0xa40cc96db9d67caa, 0x80bf5c8152f28222,
    0x0b3f6edd58d16227, 0x5b9db7848288ad71, 0x0a8c26e805810213, 0xe6476c2846a6a54f,
    0xa3c520d2ac529065, 0x1005f3da77375d32, 0x57010c9e6b9c428e, 0x6b62844d56c9bab8,
    0xf73127dd187a54ea, 0x59e282752ba66a16, 0xae2aa3855062ae54, 0xec539c910cb4a2cb,
    0x06a91b7cb8f96830, 0xe8c969083a712a03, 0x8d8f5ed4ce231938, 0xbde568ad47eb1983,
    0x12fad66f8da6261a, 0x8b896c7d97fa8418, 0xeb274ee84c5ceaed, 0x5743d3ed6fdbb9d1,
    0xb0e38fa4556c9ece, 0x8fe4aeebafefd6bf, 0x20b6a755bd5e09e9, 0x332f0db51e6ac45f,
    0x667f16168bd1b8e7, 0xab32a3217154b1a2, 0x407d756c8f55124a, 0x8bf4656c9475d3b1,
    0x7dd6ec73a523d343, 0xd796f1febc7f8d46, 0xe16c66bdcdc3f905, 0x98d725e5f18403fc,
    0x68988ced11047fb9, 0xc7c74724e7650a09, 0x473d86f29977a91e, 0x2910b9a7b553f8ad,
    0x3e8685d8e18f9ebd, 0x9f61adb093793115, 0x9441d2146278c2f0, 0x7af39ed29b50f8f0,
    0x869edfff220c2f16, 0x87247dc134774bc5, 0x8d3b71e2ff71cd69, 0x0cfb99ddbf26ae64,
    0xc6c4ef2ad755dbf8, 0x432fbf1302590e9c, 0xa99816522553417a, 0x767cbfd4601ffbb1,
];

#[rustfmt::skip]
const CONCURRENT: [u64; 64] = [
    0x03741eac4cf53270, 0xe4377f1f6a988c39, 0x953df8df08f1bef3, 0xf65f5865a4bd5092,
    0xd7f80ffd60fe0f3a, 0xd156f72e75f850a4, 0xc1b615a3a6660746, 0xdd5d0601a397296c,
    0xd497429e4813993f, 0xf061e29a0708ee7c, 0x2e96bec8d929ccf3, 0xb975f0b5ac5e48d9,
    0xec50da44e7867917, 0xe3954c474578cdc0, 0x7df95f12f2622dde, 0x9e5de088180fc036,
    0x636808693100ff52, 0x5b9db7848288ad71, 0x98367669280edf69, 0xdbc7732a352bb906,
    0x98a7391879f47db3, 0x9a90706045d3dd28, 0xb42e6853debae65e, 0x03d6350af8a68cb6,
    0xa92454bbc952cc52, 0x59e282752ba66a16, 0xda05622c36615ed5, 0x7f812be3b1c91b6c,
    0x1475402c1fdedf2d, 0x49d3a03e54b00d1b, 0x9f6d4bb3c5191337, 0x85165fe97fc77d79,
    0x99eab3317dd9a37b, 0x879e121840f6262d, 0x63514c076a3d27a0, 0x4c76877df70dbfdc,
    0xae0fba48212e6e9a, 0xfe1cce6a137d4b5c, 0xe77991aab450607f, 0x27e7d39f782e27d3,
    0x667f16168bd1b8e7, 0x503a4f249c35244c, 0x407d756c8f55124a, 0x0a0b95293ec7f25c,
    0x6568e1e8364f6a40, 0xd796f1febc7f8d46, 0xcbe0d56b8ec20105, 0x75583f8985a8d576,
    0x46f92e7d69626f5a, 0x8b33ea2ff9cb76ca, 0x777bde5b37c1c0ea, 0x46c70fba7bba6cfc,
    0x819e7b76ed725e82, 0x814b4b9c76dd9342, 0x0d1fae93433a5070, 0x903c45d77bf0d119,
    0x7a9ad4e864a83c59, 0x31d3dec1f2b1973d, 0xa158d073a08b42e8, 0x85918150931e41e1,
    0xa71d4cf4d281fd05, 0x432fbf1302590e9c, 0xa99816522553417a, 0x1961344a16b22c95,
];

#[rustfmt::skip]
const OBSERVE: [u64; 64] = [
    0xc91992508bc73e69, 0x053f0779bbdac29e, 0x52cf4a9d6e407602, 0x522122996922baaf,
    0x0143906e89585747, 0xf81da68adb75672a, 0xef407b5bf79c2b24, 0x8700cca3ea33e6c5,
    0x4e71832e897a886a, 0x85a5a313a39e8478, 0xcdca58902e74ea03, 0xf68f55bf983e93be,
    0xc8871a221a3a2fb7, 0xeb6ad837790bb5d9, 0xd89071516dc899b3, 0x1d9e744cc2dd9ee2,
    0x16f2b9c14b416be2, 0x5b9db7848288ad71, 0xeebf5b6d6da7eb7e, 0x7fdb26ab00d3c500,
    0x6cf11c32af42b4f2, 0x737b580f47c1790c, 0x9dff47569ec2257e, 0x0559d88a3272a0c3,
    0xc94ce69e422f4b5f, 0x59e282752ba66a16, 0xfd394be6c9867e12, 0x40148009fd08521f,
    0xd534bb3761890750, 0xed0e2ec6a9751e18, 0xbece9430817a790f, 0x172089a9cc5318f3,
    0x22f812878c84bb20, 0x664743d7aa8fc6e5, 0xe7749ed6504f75b5, 0xd257c11f8472c317,
    0xd6cba8790e027dd3, 0xb264ba71b8e8bfb6, 0x66929d5e4db3ef17, 0xa0bf82f93e7399fb,
    0x667f16168bd1b8e7, 0x33d1d121b0ab0812, 0x407d756c8f55124a, 0x7eb45fafb2a623ad,
    0xb08434854dc2b4d4, 0xd796f1febc7f8d46, 0xa9368905f4a54aa4, 0x5f63c31de167cae8,
    0xa41d7e77d47439b4, 0x228de018094c695b, 0x6faa2ec0679d7e07, 0x05592ccfd37c1cb1,
    0xb236ef21fcb4c8c9, 0x6a02adefb2d31ec3, 0x88de5175e6880d8c, 0x2f840b3e73157d2d,
    0x9fef0faf8d0d345f, 0xc2b21c58ab2003a9, 0x974a1f00740bf568, 0xe09f6016a158035f,
    0xbff8a2a5ef79b01c, 0x432fbf1302590e9c, 0xa99816522553417a, 0x9205446e5c96045d,
];

#[rustfmt::skip]
const INGEST: [u64; 64] = [
    0xf4ad6aec19eb0d4f, 0xc704a03bc0170110, 0xc4c27bc845f728c1, 0xc5c00a1ce5269337,
    0xf50ebcbef88c43d2, 0x2d00fb88a58ba611, 0x55bc6e36defef3fa, 0x1d8a344b65657ec8,
    0x18cd470c7794b82f, 0xabce74c9044c2a71, 0x05ec25e8eb1c9284, 0xc574cb3e76f63650,
    0x0006346447ca34fd, 0x2190b4d8a360dbbe, 0x355bd6ce069bb6a4, 0x97333cb03bfadc3b,
    0x2932b66eec4789a0, 0x5b9db7848288ad71, 0xae438766b3e195d3, 0x73e4d0183a4e7d0e,
    0x79ac431866e3e6fe, 0x3b4f4c1aca287fe0, 0x7e29de516c6a1ae4, 0xb2d8af72ccc70654,
    0x35af62a3d85aab0f, 0x59e282752ba66a16, 0x83ba317c1ca056f1, 0x683fa6d3d4bc227a,
    0x64fdd0d0c440a24f, 0x550baa7360a3fd0d, 0xba33ce904e24671a, 0xb0e4f56c47667b32,
    0x868cc5d84fabaef4, 0x31aa1552458c33a4, 0xd694ca5677384426, 0x7850d17fd98096b8,
    0xb6b16a91391f9420, 0x7adbd8f3a1046231, 0x3d567ab681357eab, 0xb7e43e383de61f06,
    0x667f16168bd1b8e7, 0x59b95467e0473fee, 0x407d756c8f55124a, 0x5faf615ce1441054,
    0xa510b1e8442428f6, 0xd796f1febc7f8d46, 0x213bcf9f72d7f989, 0x5f1ee9f2f74265e7,
    0x87a60b406d50e689, 0xf6ceb12b31dd3295, 0x2b899a11a2d6ac25, 0x3ee212d39947cdc7,
    0xac2fe477101231b8, 0x354a565b748da7ce, 0xc11f6362099234d7, 0x7f0a572b821f2cf6,
    0xd12eb24f27061f96, 0x6dbb44a654981c3c, 0x4dd15e36eb9b7fd2, 0xc0fa4e313127d57f,
    0x837be5144a04433f, 0x432fbf1302590e9c, 0xa99816522553417a, 0x0d0de93e64262dfc,
];

#[test]
fn historical_seeds_replay_the_same_draws() {
    let parent = [
        (Mode::Plain, PLAN_ONLY),
        (Mode::Faults, PLAN_ONLY),
        (Mode::Recovery, PLAN_ONLY),
        (Mode::Cache, PLAN_ONLY),
        (Mode::Concurrent, CONCURRENT),
        (Mode::Observe, OBSERVE),
        (Mode::Ingest, INGEST),
    ];
    for (mode, want) in parent {
        for (seed, digest) in want.into_iter().enumerate() {
            let got = replay_digest(mode, seed as u64);
            assert_eq!(
                got, digest,
                "{mode:?} seed {seed} no longer draws what it used to"
            );
        }
    }
}
