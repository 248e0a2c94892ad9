package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"circuitfold/internal/core"
	"circuitfold/internal/gen"
	"circuitfold/internal/pipeline"
)

// foldGolden pins, for every configuration of foldbench's
// table3-functional workload, the SHA-256 of the folded result
// (EncodeResult with the report stripped) and of the time-frame-folded
// machine (EncodeMachine of the tff stage, at 1 and at 2 workers).
// Engine optimizations in schedule, tff, minimize and encode must keep
// both bit-identical: a changed hash means every cached and
// checkpointed artifact of that configuration would be stale, which
// needs a codec or foldKeyVersion bump rather than a new table.
var foldGolden = []struct {
	circuit  string
	T        int
	minimize bool
	enc      string
	reorder  bool
	result   string
	tff      string
}{
	{"64-adder", 16, false, "nat", false,
		"60099e94fa6c73a1acbd59d1acac5d665d7a0b23a4a5973b279bc2a0e8127d0f",
		"3b8b9742f6188d06f987bd04d875478c573fac6607922a6d2f619f82e9f413e6"},
	{"64-adder", 16, false, "nat", true,
		"e00db22bfdf6810122c682079a10e591f6514988f90e81f0cf2f5a05cff21435",
		"2430fffd0b35d0c5591e45e3288e039b1474dba9ecd4f039da87f96f069d8175"},
	{"64-adder", 16, false, "1hot", false,
		"6d25215d7e5fced5527f474ee3b5731dec7870fbfff8c720c9c0bd150a951d3c",
		"3b8b9742f6188d06f987bd04d875478c573fac6607922a6d2f619f82e9f413e6"},
	{"64-adder", 16, false, "1hot", true,
		"34e445efbb5d49ec7d0ec26310d5e3f5013312064032cfd0835ba9a7e3385ff7",
		"2430fffd0b35d0c5591e45e3288e039b1474dba9ecd4f039da87f96f069d8175"},
	{"apex2", 16, false, "nat", false,
		"bb5777e25912d06a17a14a5af4cab02bd8c0006db02c117874d098d8834c86a7",
		"a9c79691e579cffc59cd0b5a5396753da39fbdf0627bd7d2d8fdbbb9e243fdc3"},
	{"apex2", 16, false, "nat", true,
		"bb5777e25912d06a17a14a5af4cab02bd8c0006db02c117874d098d8834c86a7",
		"a9c79691e579cffc59cd0b5a5396753da39fbdf0627bd7d2d8fdbbb9e243fdc3"},
	{"apex2", 16, false, "1hot", false,
		"a4bdaa7cc9ec5c6c43ca2129ac9a3a2ed0259be2ba8fcd04b9ffa7c6d9bcbedf",
		"a9c79691e579cffc59cd0b5a5396753da39fbdf0627bd7d2d8fdbbb9e243fdc3"},
	{"apex2", 16, false, "1hot", true,
		"a4bdaa7cc9ec5c6c43ca2129ac9a3a2ed0259be2ba8fcd04b9ffa7c6d9bcbedf",
		"a9c79691e579cffc59cd0b5a5396753da39fbdf0627bd7d2d8fdbbb9e243fdc3"},
	{"apex2", 8, false, "nat", false,
		"cb1b1386e6f82b93b1e406457c4ab6f1253ecab9da1268992fcbde0e8d27736a",
		"e807b788d6ea617a7b648e83e97ddf00b34862df2a3de0b19afe5476f36e3ff7"},
	{"apex2", 8, false, "nat", true,
		"cb1b1386e6f82b93b1e406457c4ab6f1253ecab9da1268992fcbde0e8d27736a",
		"e807b788d6ea617a7b648e83e97ddf00b34862df2a3de0b19afe5476f36e3ff7"},
	{"apex2", 8, false, "1hot", false,
		"2afd0c5fbe2864b287858519a41afd197c0e24d24862a17c090f0e7b01f51d7c",
		"e807b788d6ea617a7b648e83e97ddf00b34862df2a3de0b19afe5476f36e3ff7"},
	{"apex2", 8, false, "1hot", true,
		"2afd0c5fbe2864b287858519a41afd197c0e24d24862a17c090f0e7b01f51d7c",
		"e807b788d6ea617a7b648e83e97ddf00b34862df2a3de0b19afe5476f36e3ff7"},
	{"apex2", 4, false, "nat", false,
		"f54da6f043d7336dd17e6cfce763e46c01915fcaed8f5050070fba81531b4795",
		"c667e260f66fe0feea578646b0abae31784d0809680f0e57680b992fe844b8a7"},
	{"apex2", 4, false, "nat", true,
		"f54da6f043d7336dd17e6cfce763e46c01915fcaed8f5050070fba81531b4795",
		"c667e260f66fe0feea578646b0abae31784d0809680f0e57680b992fe844b8a7"},
	{"apex2", 4, false, "1hot", false,
		"e58cc3bfa305fbeb44dd21e9c7f9d0bf6c659a469184c4e00f13307d7f0c8715",
		"c667e260f66fe0feea578646b0abae31784d0809680f0e57680b992fe844b8a7"},
	{"apex2", 4, false, "1hot", true,
		"e58cc3bfa305fbeb44dd21e9c7f9d0bf6c659a469184c4e00f13307d7f0c8715",
		"c667e260f66fe0feea578646b0abae31784d0809680f0e57680b992fe844b8a7"},
	{"arbiter", 16, false, "nat", false,
		"b47524507e48994ba9736d29ca9772a9bdb0c78068e7c696f695c258df27aee5",
		"b7d15907a85080b52bb9f7c495022e9050acfb7ab597cc2a11ade5db7f3fcf96"},
	{"arbiter", 16, false, "nat", true,
		"b47524507e48994ba9736d29ca9772a9bdb0c78068e7c696f695c258df27aee5",
		"b7d15907a85080b52bb9f7c495022e9050acfb7ab597cc2a11ade5db7f3fcf96"},
	{"arbiter", 16, false, "1hot", false,
		"731ac5c838839f9af9601f95f473b6e42f0be7cb133846de16fa19a2b8c18595",
		"b7d15907a85080b52bb9f7c495022e9050acfb7ab597cc2a11ade5db7f3fcf96"},
	{"arbiter", 16, false, "1hot", true,
		"731ac5c838839f9af9601f95f473b6e42f0be7cb133846de16fa19a2b8c18595",
		"b7d15907a85080b52bb9f7c495022e9050acfb7ab597cc2a11ade5db7f3fcf96"},
	{"arbiter", 16, true, "nat", false,
		"60a75992d8805729430f07c547a30ca9b0c982140e222bf8eff7891d1f5d73ef",
		"b7d15907a85080b52bb9f7c495022e9050acfb7ab597cc2a11ade5db7f3fcf96"},
	{"arbiter", 16, true, "nat", true,
		"60a75992d8805729430f07c547a30ca9b0c982140e222bf8eff7891d1f5d73ef",
		"b7d15907a85080b52bb9f7c495022e9050acfb7ab597cc2a11ade5db7f3fcf96"},
	{"arbiter", 16, true, "1hot", false,
		"6f9f8709c5eae09e79ebb1f2c1eca07512de18f9d13646d791f7d2c3bf3586d1",
		"b7d15907a85080b52bb9f7c495022e9050acfb7ab597cc2a11ade5db7f3fcf96"},
	{"arbiter", 16, true, "1hot", true,
		"6f9f8709c5eae09e79ebb1f2c1eca07512de18f9d13646d791f7d2c3bf3586d1",
		"b7d15907a85080b52bb9f7c495022e9050acfb7ab597cc2a11ade5db7f3fcf96"},
	{"arbiter", 8, false, "nat", false,
		"74949fc05a2ffa364b5e55a04f881d7dadd362c92138c6251072cf64b216b558",
		"b3a7a214da15185e9179f31bbbd5c15efec4010326c324df97a26be1262e6246"},
	{"arbiter", 8, false, "nat", true,
		"74949fc05a2ffa364b5e55a04f881d7dadd362c92138c6251072cf64b216b558",
		"b3a7a214da15185e9179f31bbbd5c15efec4010326c324df97a26be1262e6246"},
	{"arbiter", 8, false, "1hot", false,
		"4e366ff03313c24631b9896e706e062782eaa730a4f206197a2e336b108e9ded",
		"b3a7a214da15185e9179f31bbbd5c15efec4010326c324df97a26be1262e6246"},
	{"arbiter", 8, false, "1hot", true,
		"4e366ff03313c24631b9896e706e062782eaa730a4f206197a2e336b108e9ded",
		"b3a7a214da15185e9179f31bbbd5c15efec4010326c324df97a26be1262e6246"},
	{"arbiter", 4, true, "nat", false,
		"5129f4f6e584969b11a777b0d8ac630c89ebe373938cea3db7300cf8f66836f4",
		"46f14f8637fcebf180450fc8e97e0a4b013520cee748e0d8a5d540f54d1f45c2"},
	{"arbiter", 4, true, "nat", true,
		"5129f4f6e584969b11a777b0d8ac630c89ebe373938cea3db7300cf8f66836f4",
		"46f14f8637fcebf180450fc8e97e0a4b013520cee748e0d8a5d540f54d1f45c2"},
	{"arbiter", 4, true, "1hot", false,
		"41d687203350db1cb061cfe1c4fc54cede5493afbd4b10fb201e437077edf4b5",
		"46f14f8637fcebf180450fc8e97e0a4b013520cee748e0d8a5d540f54d1f45c2"},
	{"arbiter", 4, true, "1hot", true,
		"41d687203350db1cb061cfe1c4fc54cede5493afbd4b10fb201e437077edf4b5",
		"46f14f8637fcebf180450fc8e97e0a4b013520cee748e0d8a5d540f54d1f45c2"},
	{"e64", 16, true, "nat", false,
		"2f16d63b7bcd73f923431c9f07ae9f2f6652f606ea0515edf8884d85ae4f6b20",
		"597881d93aacf881cd4df55ce20b3735204982d57d17f55d3bc2badce5692f0f"},
	{"e64", 16, true, "nat", true,
		"df485928efc668565794a03e23c933e8edeb3f6939cd874ae5bb3db2fff1d670",
		"72ffaced4057d569e517a593852de4017ddb1d5342586f368fe5b1ec1b0d6441"},
	{"e64", 16, true, "1hot", false,
		"207cba219446a3c22a6bd5b584a9faf274cc6d9007954b87b8f26fdb85a41aad",
		"597881d93aacf881cd4df55ce20b3735204982d57d17f55d3bc2badce5692f0f"},
	{"e64", 16, true, "1hot", true,
		"fa79d73296fde50c74e7f0d9cad69caf1a730c072a36150d0cc397798bacdccb",
		"72ffaced4057d569e517a593852de4017ddb1d5342586f368fe5b1ec1b0d6441"},
	{"e64", 8, false, "nat", false,
		"1e8995063189bf1267d5a65adc3d82c3235b357a8be55ab092cfe3da9454e32b",
		"486967b8cf509620f1fb976e33107c0fc3663aa44d444aec3ec9b5d1791237ec"},
	{"e64", 8, false, "nat", true,
		"42c9ad01c77e4c6f9057de31a7faa9bfcc6bdcc327a154f13c113fbc02ba55ba",
		"fcf279821b754f56fcb3fe99b579f2e3c454d049cf34cad7a9c01a39eead9ae5"},
	{"e64", 8, false, "1hot", false,
		"f4a438437cebafcd08b62d74de12a7e59e809bdcebe3c137242154e3868e0892",
		"486967b8cf509620f1fb976e33107c0fc3663aa44d444aec3ec9b5d1791237ec"},
	{"e64", 8, false, "1hot", true,
		"c57ddb1b8534d11caaf50fee93fc1e3d734f1a17876d994cc8126922c33f7ec4",
		"fcf279821b754f56fcb3fe99b579f2e3c454d049cf34cad7a9c01a39eead9ae5"},
	{"e64", 4, true, "nat", false,
		"fda8104261867a690f89bd44f6e6493c88db99fa38bd4941a19093d221115278",
		"3ace85d0a288b26ceea890e7a4e59a3989d0a745a76f2c4652b109d90c2465e9"},
	{"e64", 4, true, "nat", true,
		"f523bde9f4b0e2233fd70d4f9fe3e1ad7dbb316fdb27309a4b0544d1f15d3e69",
		"aa4b96b8cbd66f3fef4d34d333ddcc22fa44ea6cdfc938aaf65f6676671a32e0"},
	{"e64", 4, true, "1hot", false,
		"c25426fbe6c36069ff5171e21858e1428c8de408bc1bc555def6fa2a7625570d",
		"3ace85d0a288b26ceea890e7a4e59a3989d0a745a76f2c4652b109d90c2465e9"},
	{"e64", 4, true, "1hot", true,
		"31937c421c12f2b9a3155cf5671af635107ef95b9852cbcec8e149f0bbeaefd3",
		"aa4b96b8cbd66f3fef4d34d333ddcc22fa44ea6cdfc938aaf65f6676671a32e0"},
	{"i2", 16, true, "nat", false,
		"1169720c32d8754f002900497fb0f7f4296298b7dddb9b57c251a926825bafcf",
		"6fe317c3708aee57b3f8bbcdd9cf97f5a97d0a7f75f2fbeb2bc0cf9fcfa9b7b7"},
	{"i2", 16, true, "nat", true,
		"1169720c32d8754f002900497fb0f7f4296298b7dddb9b57c251a926825bafcf",
		"6fe317c3708aee57b3f8bbcdd9cf97f5a97d0a7f75f2fbeb2bc0cf9fcfa9b7b7"},
	{"i2", 16, true, "1hot", false,
		"ecbbe5241974767bbaa444ee5c2395878e2a2255003bfbbbcfc56c337e19a0eb",
		"6fe317c3708aee57b3f8bbcdd9cf97f5a97d0a7f75f2fbeb2bc0cf9fcfa9b7b7"},
	{"i2", 16, true, "1hot", true,
		"ecbbe5241974767bbaa444ee5c2395878e2a2255003bfbbbcfc56c337e19a0eb",
		"6fe317c3708aee57b3f8bbcdd9cf97f5a97d0a7f75f2fbeb2bc0cf9fcfa9b7b7"},
	{"i2", 8, false, "nat", false,
		"8536fa932e36e53d510d363ce7d2182a03347129477f583d2928f16a68ac4a19",
		"ddea8cec98921f607fbf664b7f42b085050f2f20e27d2006cc99a72e544be54f"},
	{"i2", 8, false, "nat", true,
		"8536fa932e36e53d510d363ce7d2182a03347129477f583d2928f16a68ac4a19",
		"ddea8cec98921f607fbf664b7f42b085050f2f20e27d2006cc99a72e544be54f"},
	{"i2", 8, false, "1hot", false,
		"e265f6ef4c0c1848356933690d853b71c0c96aaa35bea252ef7621fc8fe02900",
		"ddea8cec98921f607fbf664b7f42b085050f2f20e27d2006cc99a72e544be54f"},
	{"i2", 8, false, "1hot", true,
		"e265f6ef4c0c1848356933690d853b71c0c96aaa35bea252ef7621fc8fe02900",
		"ddea8cec98921f607fbf664b7f42b085050f2f20e27d2006cc99a72e544be54f"},
	{"i3", 16, false, "nat", false,
		"037c0e82a89c1bca65f2581b928ed2cbfe7da51c00edaf43299d939ea425b673",
		"4a450d89add5ad5f9c7a60dac08f28c177376e9d3445f730267245fd5b267b4f"},
	{"i3", 16, false, "nat", true,
		"037c0e82a89c1bca65f2581b928ed2cbfe7da51c00edaf43299d939ea425b673",
		"4a450d89add5ad5f9c7a60dac08f28c177376e9d3445f730267245fd5b267b4f"},
	{"i3", 16, false, "1hot", false,
		"c26c6e09d215ce4e8bfa358626dad4353b77433b61b5ea7dbb7ffe3052cee9ac",
		"4a450d89add5ad5f9c7a60dac08f28c177376e9d3445f730267245fd5b267b4f"},
	{"i3", 16, false, "1hot", true,
		"c26c6e09d215ce4e8bfa358626dad4353b77433b61b5ea7dbb7ffe3052cee9ac",
		"4a450d89add5ad5f9c7a60dac08f28c177376e9d3445f730267245fd5b267b4f"},
	{"i3", 8, true, "nat", false,
		"3325e893051a9bcd832b267f65463ca052e042d8b3f161be9f75ef9a4f263906",
		"85b75254caa63b278bd8473afb8cdb0fa5d25eaa387481e72976b53ad63bac57"},
	{"i3", 8, true, "nat", true,
		"3325e893051a9bcd832b267f65463ca052e042d8b3f161be9f75ef9a4f263906",
		"85b75254caa63b278bd8473afb8cdb0fa5d25eaa387481e72976b53ad63bac57"},
	{"i3", 8, true, "1hot", false,
		"e7fc10c069afa77100d0673f8f88cee2be513032014b29ce3505c73ea3ff6859",
		"85b75254caa63b278bd8473afb8cdb0fa5d25eaa387481e72976b53ad63bac57"},
	{"i3", 8, true, "1hot", true,
		"e7fc10c069afa77100d0673f8f88cee2be513032014b29ce3505c73ea3ff6859",
		"85b75254caa63b278bd8473afb8cdb0fa5d25eaa387481e72976b53ad63bac57"},
	{"i3", 4, false, "nat", false,
		"ac9576d15572509dad40f1562e17dc8f008a23d8ba54b062028f709c4488162a",
		"aaf59a2527846c6a086816216c068552214d4a62350a21d6f46675087263c7c5"},
	{"i3", 4, false, "nat", true,
		"ac9576d15572509dad40f1562e17dc8f008a23d8ba54b062028f709c4488162a",
		"aaf59a2527846c6a086816216c068552214d4a62350a21d6f46675087263c7c5"},
	{"i4", 16, false, "nat", false,
		"bbc56d6ec3390d836a01aeda4f2b637fd5f31e760818afd67057fd557e5a27c9",
		"c3c2e31f445bc6d9d7edf0f9d3253b139a5f5ec7e2847e4a5c49ac8cba186c15"},
	{"i4", 16, false, "nat", true,
		"bbc56d6ec3390d836a01aeda4f2b637fd5f31e760818afd67057fd557e5a27c9",
		"c3c2e31f445bc6d9d7edf0f9d3253b139a5f5ec7e2847e4a5c49ac8cba186c15"},
	{"i4", 16, false, "1hot", false,
		"d86a1c4adaa1df931c8149fb0e524b82e70d80df37b65fe46a2c99096d45aa40",
		"c3c2e31f445bc6d9d7edf0f9d3253b139a5f5ec7e2847e4a5c49ac8cba186c15"},
	{"i4", 16, false, "1hot", true,
		"d86a1c4adaa1df931c8149fb0e524b82e70d80df37b65fe46a2c99096d45aa40",
		"c3c2e31f445bc6d9d7edf0f9d3253b139a5f5ec7e2847e4a5c49ac8cba186c15"},
	{"i6", 16, true, "nat", false,
		"858c1ed1a945aa5e81f001a076474eee35090827c9cf6ef7c2655b4872583380",
		"edc3d01ffb6a026a6f9f303f1a180dfc981d910a4ba82876f10441ec36a61bfd"},
	{"i6", 16, true, "nat", true,
		"5421afe7b8b8a03df09c28613766eb2fee1005998192bbb0b56ffbdf62069da6",
		"83e31f6ce27c1c69e5c008b19ef7012aa13006f93375889f00e5075dd8422560"},
	{"i6", 16, true, "1hot", false,
		"c8f370d12aa2ee24d9553528809c003a76c6ae9154e0c7cac9ac658ea8f6c9e6",
		"edc3d01ffb6a026a6f9f303f1a180dfc981d910a4ba82876f10441ec36a61bfd"},
	{"i6", 16, true, "1hot", true,
		"34ca29f4c06e8fde39e9d1111e087a395898b8b8bc10452b0d33d76e66100b4f",
		"83e31f6ce27c1c69e5c008b19ef7012aa13006f93375889f00e5075dd8422560"},
	{"i7", 16, false, "nat", false,
		"dbfff7aebfcb0f7ff9b6ac10a8a52d334267568c135b2c595e6042ef8527f345",
		"893a80b4204e08a61c9c1608a0ba72ae933911624e4c9bf9f8d545ffa716aaa7"},
	{"i7", 16, false, "nat", true,
		"a082d6220778824442d065734fcc03e3c1ddfbf493f12a5613553b58e74caad2",
		"17ad432e158270e1ced15f84cbfad92b907208a5501c66b8f68f9b70a6349132"},
	{"toolarge", 16, false, "nat", false,
		"3cd6c0c5c33bb96fd414f1dff36b701b7d50ae5f81b21c1c36d965d57dc1ae6a",
		"8ce120e183e2919c3eeb4fbf476233a159d60e17bc0bb13ce2bc912b76d19203"},
	{"toolarge", 16, false, "nat", true,
		"3cd6c0c5c33bb96fd414f1dff36b701b7d50ae5f81b21c1c36d965d57dc1ae6a",
		"8ce120e183e2919c3eeb4fbf476233a159d60e17bc0bb13ce2bc912b76d19203"},
	{"toolarge", 16, false, "1hot", false,
		"eb342d7392488bf7a4b8feac3a5f7424b317ed29ba54a3d04d08886767230ae5",
		"8ce120e183e2919c3eeb4fbf476233a159d60e17bc0bb13ce2bc912b76d19203"},
	{"toolarge", 16, false, "1hot", true,
		"eb342d7392488bf7a4b8feac3a5f7424b317ed29ba54a3d04d08886767230ae5",
		"8ce120e183e2919c3eeb4fbf476233a159d60e17bc0bb13ce2bc912b76d19203"},
	{"toolarge", 8, false, "nat", false,
		"9cee22d6efaa615110164f33873669d1de8f72bce46cf82cf87a98d453adeabf",
		"f0875f4327d3b0234846a13e4acf3a5419239ceaf49b4360b662dd0d5cbad8f2"},
	{"toolarge", 8, false, "nat", true,
		"9cee22d6efaa615110164f33873669d1de8f72bce46cf82cf87a98d453adeabf",
		"f0875f4327d3b0234846a13e4acf3a5419239ceaf49b4360b662dd0d5cbad8f2"},
	{"toolarge", 8, false, "1hot", false,
		"bb24e763cc5eca07727aee4484f794f121bb710bd8b4ce38b78abcb61910d169",
		"f0875f4327d3b0234846a13e4acf3a5419239ceaf49b4360b662dd0d5cbad8f2"},
	{"toolarge", 8, false, "1hot", true,
		"bb24e763cc5eca07727aee4484f794f121bb710bd8b4ce38b78abcb61910d169",
		"f0875f4327d3b0234846a13e4acf3a5419239ceaf49b4360b662dd0d5cbad8f2"},
	{"toolarge", 4, false, "nat", false,
		"58896168ace85f7d4dc03c7983628a652aa3475a63add48e13f4eb1eaa4b4353",
		"af800f679db59d5c8d5eb8720c7732c06534de2614af974b69fb76bd1fde90b4"},
	{"toolarge", 4, false, "nat", true,
		"58896168ace85f7d4dc03c7983628a652aa3475a63add48e13f4eb1eaa4b4353",
		"af800f679db59d5c8d5eb8720c7732c06534de2614af974b69fb76bd1fde90b4"},
}

// tffCapture is a checkpoint that keeps only the tff stage's artifact.
type tffCapture struct{ blob []byte }

func (c *tffCapture) Load(string) ([]byte, bool) { return nil, false }

func (c *tffCapture) Save(key string, data []byte) error {
	if strings.HasPrefix(key, pipeline.StageTFF+"/") {
		c.blob = append([]byte(nil), data...)
	}
	return nil
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestFoldGoldenTable3(t *testing.T) {
	if len(foldGolden) != 82 {
		t.Fatalf("golden table has %d configurations, want table3-functional's 82", len(foldGolden))
	}
	for _, c := range foldGolden {
		name := fmt.Sprintf("%s/T=%d/m=%v/%s/reorder=%v", c.circuit, c.T, c.minimize, c.enc, c.reorder)
		t.Run(name, func(t *testing.T) {
			g := gen.MustBuild(c.circuit)
			opt := core.DefaultFunctionalOptions()
			opt.Reorder, opt.Minimize, opt.Workers = c.reorder, c.minimize, 1
			opt.StateEnc = core.Binary
			if c.enc == "1hot" {
				opt.StateEnc = core.OneHot
			}
			ck := &tffCapture{}
			opt.Checkpoint = ck
			res, err := core.FunctionalFold(g, c.T, opt)
			if err != nil {
				t.Fatalf("fold: %v", err)
			}
			res.Report = nil
			blob, err := core.EncodeResult(res)
			if err != nil {
				t.Fatalf("encode result: %v", err)
			}
			if got := sha(blob); got != c.result {
				t.Errorf("result hashes to %s, want %s", got, c.result)
			}
			if got := sha(ck.blob); got != c.tff {
				t.Errorf("tff machine (1 worker) hashes to %s, want %s", got, c.tff)
			}
			sched, err := core.PinSchedule(g, c.T, core.ScheduleOptions{Reorder: c.reorder})
			if err != nil {
				t.Fatalf("schedule: %v", err)
			}
			m, n, err := core.TimeFrameFold(g, sched, 2, nil)
			if err != nil {
				t.Fatalf("tff (2 workers): %v", err)
			}
			mblob, err := core.EncodeMachine(m, n)
			if err != nil {
				t.Fatalf("encode machine: %v", err)
			}
			if got := sha(mblob); got != c.tff {
				t.Errorf("tff machine (2 workers) hashes to %s, want %s", got, c.tff)
			}
		})
	}
}

// TestFoldGoldenTable3SharedStore folds every configuration of
// foldGolden, in table order, through one shared checkpoint store: a
// configuration that agrees with an earlier one up to a stage restores
// that stage from its blob instead of running it. Every result must
// still hash to its golden, and the twins must really share: each
// configuration whose (circuit, T, reorder) came earlier resumes its
// schedule and tff stages.
func TestFoldGoldenTable3SharedStore(t *testing.T) {
	shared := newMemCheckpoint()
	type prefix struct {
		circuit string
		T       int
		reorder bool
	}
	seen := map[prefix]bool{}
	restored := 0
	for _, c := range foldGolden {
		name := fmt.Sprintf("%s/T=%d/m=%v/%s/reorder=%v", c.circuit, c.T, c.minimize, c.enc, c.reorder)
		g := gen.MustBuild(c.circuit)
		opt := core.DefaultFunctionalOptions()
		opt.Reorder, opt.Minimize, opt.Workers = c.reorder, c.minimize, 1
		opt.StateEnc = core.Binary
		if c.enc == "1hot" {
			opt.StateEnc = core.OneHot
		}
		opt.Checkpoint = shared
		res, err := core.FunctionalFold(g, c.T, opt)
		if err != nil {
			t.Fatalf("%s: fold: %v", name, err)
		}
		p := prefix{c.circuit, c.T, c.reorder}
		for _, stage := range []string{pipeline.StageSchedule, pipeline.StageTFF} {
			if got := res.Report.Stage(stage).Resumed; got != seen[p] {
				t.Errorf("%s: stage %s resumed=%v, want %v", name, stage, got, seen[p])
			}
		}
		if res.Report.Stage(pipeline.StageTFF).Resumed {
			restored++
		}
		seen[p] = true
		res.Report = nil
		blob, err := core.EncodeResult(res)
		if err != nil {
			t.Fatalf("%s: encode result: %v", name, err)
		}
		if got := sha(blob); got != c.result {
			t.Errorf("%s: result through the shared store hashes to %s, want %s", name, got, c.result)
		}
	}
	t.Logf("%d of %d folds restored tff from the shared store", restored, len(foldGolden))
}
