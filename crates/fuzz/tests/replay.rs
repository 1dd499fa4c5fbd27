//! Old seeds replay unchanged: `replay_digest` over seeds 0..64 of the seven
//! historical modes, as computed at the parent of the harness rewrite from
//! the seven `run_*_case` functions' own draws. Plain, faults, recovery and
//! cache draw nothing beyond the plan, so they share one row.

use rodb_fuzz::{replay_digest, Mode};

#[rustfmt::skip]
const PLAN_ONLY: [u64; 64] = [
    0x1fe2915b6f9381f2, 0x7a5596f07f7236f1, 0xb9bcb01531e59548, 0x67cbd3560f841238,
    0x9c323811125ff285, 0xc27d8886f1bf8fbb, 0xc2ce029aba67a199, 0x1ac1c7623104d692,
    0xf95414fc566f2349, 0xfe8918b24a24b4df, 0x0eceb6e64380b364, 0xc7c9a369fa37b8a7,
    0x9d6e50ea4098356a, 0xd877a7fd08cf4597, 0xb0b684494f200410, 0xf0e83baea2ba6a4c,
    0x28760880b029e3db, 0x5361341abcaa60ac, 0x267abbfea7b71d75, 0x102246ee9fbe0978,
    0x9a2657c1ef1709a9, 0x2f21c07f12ab93c1, 0x96938abd1f599998, 0x41d7c327342d3391,
    0xed872e3dd40164a1, 0xb7d1edf79be81eea, 0x60a38a892bbdc049, 0xff415cf451e057c3,
    0x40d258c08ae2c2c1, 0xc104f9072b833797, 0xf2bae3eb366ee552, 0xe532286fc624c72c,
    0xdcef29a8490e4a52, 0xdbff3829ff57d5ae, 0xf3a390c80c12f04f, 0xad5726861a22f85c,
    0xdd7bc6fb41af557c, 0xc60b64aea53cc86e, 0xee90f1b2476b27b1, 0x7c5e7572171545ec,
    0xfc8c733407a4e4a0, 0x816855fc3c7b01c8, 0x895c166469c46e0e, 0xfade8efcb67d5c5e,
    0x5e1bc92d3bf38eab, 0x777f069a73823bfe, 0x0b36ffe6da6bcd18, 0x36ce438298a5020a,
    0xfd467785f240539b, 0xfccd115da7356d53, 0x7d98fea7cbd0378b, 0x6e08947d6c0b2ff8,
    0x82099bc696ea8d30, 0x0f692c0fcd733639, 0xeac3bba43ee2ebbc, 0x6ece66648818f906,
    0x467e88ad1f5ad0bf, 0x42801fb80c766b21, 0x534dc0687dab0da3, 0x07ad337b186c3fbf,
    0x0d268e480d73504e, 0x664673e14c53c07d, 0xf67317c0d3b5700c, 0x80c09cfc442c3e0b,
];

#[rustfmt::skip]
const CONCURRENT: [u64; 64] = [
    0x790a085ee296773a, 0x2dfe8ad25efb8c49, 0x8cfaf06b48ba4a42, 0xa719079e08d0e985,
    0x6d4758efe83154ff, 0xc210dad050a70184, 0x3bcf19db2003908d, 0x5eb1daba59c98145,
    0xc8218b9a121675bc, 0xea618babc494c470, 0xa4688dc6f3ea85a8, 0x0904d3c5e80b8de5,
    0x85154396c55e4ce3, 0x7a26b486dc2037a0, 0xaf71a86e4d3c0ab5, 0xabbba44d51166fc7,
    0x3afd922b619f9f7e, 0x5361341abcaa60ac, 0x4e84b610324b0ebf, 0x2e5848b1dba375ba,
    0x113515c16bdfb135, 0xa8d1e5796fb05cb6, 0x829dae41e046e725, 0x5d4468e243202a88,
    0xf6ba145e1f2eec64, 0xb7d1edf79be81eea, 0x3f34e0ca2d3ae378, 0xc10ed13992d8c40d,
    0xbac023cbcb8a9797, 0x57ccc2338d2272be, 0x4441fde8bdc1b1d1, 0xb44db95a12f44b6b,
    0x6d6e92bf69b67b32, 0xf22af6ac6050f4c9, 0xa74629684a1f9e2f, 0xb7ed4275656205c1,
    0xa1eea40a86ad4e0b, 0x6f82dd9002a0ec71, 0x3206cae202af7b7f, 0xd7c2400b958f1edf,
    0xfc8c733407a4e4a0, 0x9f5593f8983d74f9, 0x895c166469c46e0e, 0x65e51b8776f82ef9,
    0x8585d925b3efbe07, 0x777f069a73823bfe, 0xdcdce579ab3053d4, 0x2869100011514468,
    0x10e22789c3d15b7a, 0xadb6433c57ff6fba, 0x382ecde4b60b527a, 0x42bf05cd261133eb,
    0x67a41aecce7a498c, 0x869cf4223e1bada1, 0xa8383e80824933ae, 0xe2b6a7e3059ddf7a,
    0x271cb8daf165f2e6, 0x955661fb43247f7b, 0xe67d4b2d3bd109ef, 0x7eecde1c6797aee4,
    0xee8fbc68a5ff6a4f, 0x664673e14c53c07d, 0xf67317c0d3b5700c, 0xefcedddb9e6f2855,
];

#[rustfmt::skip]
const OBSERVE: [u64; 64] = [
    0x46f9f718be5a116f, 0x0ef02e85522321d8, 0xcd64673f71db4fb5, 0xebf194616fb13e4a,
    0xeaca3470028824da, 0x2ebe62c1d32c6002, 0x076a958787ebf5ab, 0x71ebae58f4c5f3b1,
    0x09ae549c6864b6fb, 0x435bc52f02d277a8, 0x72dc76aa1428a7b5, 0xe96f5953d548b632,
    0x74d200e0b5b1b275, 0x86948f510daf00ed, 0x6b37436af70aac71, 0x3d1015a3fb9f851b,
    0x578c417fd46c45c9, 0x5361341abcaa60ac, 0xabc5559c276436f5, 0x970c217fde883467,
    0x5d2e8d3a41a41094, 0x0ade2e158abbd685, 0x1460fb245ef6ef6e, 0xc4fa8b8b5d4ec0dd,
    0xefecc343faa50e97, 0xb7d1edf79be81eea, 0x204faeb0a43c2fc5, 0x82b329048be01efc,
    0xdd52af9b25726ae6, 0x6d0b4bf68f94bbda, 0x55d9279fb5ab2b96, 0xedc6e23d24c5f0f4,
    0xa720293125f058d8, 0x7a44bc0ec351a43c, 0xf2ac4091b92b658a, 0xb1f3f762be95b8d7,
    0x0d27fefa1d705cc7, 0x8cf06f3596bb9998, 0x2305d078e4ccd8ca, 0xbcaef43cacceb78a,
    0xfc8c733407a4e4a0, 0x18f1f3c6ce913974, 0x895c166469c46e0e, 0x0a1e137d0edd6d1c,
    0x8f0e06b83990572b, 0x777f069a73823bfe, 0xc8443757861e4990, 0x794706901d0a0a70,
    0xe5b9dfb5c38c16e4, 0x3ae57ebe74f6b1e3, 0x12953680e04a998f, 0x0ed50427296f77da,
    0x90aad6bcd2bcc8da, 0x8d2ac1c855e59a01, 0xed200e29688682d1, 0xb5bf3a3aebd47648,
    0x0e2afd8921472320, 0xb1e2012f1df99848, 0xc325981f8e4706b5, 0xf58577633f89439f,
    0x10b92a2b7e8f2a54, 0x664673e14c53c07d, 0xf67317c0d3b5700c, 0x444fe17b7ad9eaa1,
];

#[rustfmt::skip]
const INGEST: [u64; 64] = [
    0x6dc79a6441963f73, 0x855424ad21b008e3, 0x52eae8b067168714, 0xc621453fbcb61f9d,
    0x39b9cd340d89ecac, 0xd11920441e91539f, 0x255214d920974e95, 0x36e4d40ea7438cd3,
    0x8197a726d04970ce, 0x24b87e509a911233, 0x2088a6b26408b95d, 0x73ad96b2ddd1a921,
    0x5c7a2b5a2c8ef6a6, 0x3ce16bffc8761717, 0x712023aacdf01734, 0x8a86046c6f79672a,
    0xde6a90b3da5f610e, 0x5361341abcaa60ac, 0xf3aaed54f38452dc, 0x85eba4704896e058,
    0xcfb0627450c0eeac, 0x08f18f0cf4ff2cea, 0x78dbcd0a06234b4a, 0x5c4e119a83f2d77e,
    0x3a5970c836e36b1a, 0xb7d1edf79be81eea, 0xb54368087e451fc8, 0xcd36e96c173ec597,
    0xd34bcef33821d93e, 0x1511b8f114423512, 0x939fc1b9f54bd499, 0xc9e33940a8684e68,
    0xb123698ee39752e9, 0x050b95af7c84ca16, 0xde2cd324b554c675, 0xd963fe7487a6101f,
    0x1fe6e4172465813a, 0xecfa88df9087eac6, 0x48fe7555c25ce5fc, 0x4c4a6e8387a44929,
    0xfc8c733407a4e4a0, 0xd4ab83666f94474c, 0x895c166469c46e0e, 0x330a2c21e95d1d6c,
    0xae531d6d576dbe90, 0x777f069a73823bfe, 0xf3df9d23300c97f5, 0x8c535126ab40bff1,
    0x38e672d1cd1afbb7, 0x463f37208dd23a75, 0xb46889cc09d22dc1, 0x76078c178865d002,
    0x76cdb9e79fa25ca7, 0x4975c870931358ea, 0x0d0f69ae0a948338, 0xf347bdea6091035c,
    0xe39f17329a2c5e50, 0xce0c8d1b2c1f8774, 0xebc730f95290a346, 0x9b211985e55e0567,
    0x8070a70c89dd2941, 0x664673e14c53c07d, 0xf67317c0d3b5700c, 0x35e6d95b4399b953,
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
