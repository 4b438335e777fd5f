// Golden-digest table: the behaviour contract, checked directly (DESIGN.md §2.21).
//
// Every row is one full adversarial chaos run (crash, reboot, partition, rollback attacks,
// checkpoint/snapshot fates; seeds round-robin over all ten protocols) under the sweep
// options below, pinned to its outcome and to the SHA-256 digests of its event log,
// flight-recorder journal and client-observed KV history. The rows were generated on a
// build that also ran every seed on the reference heap engine and found it digest-identical,
// so the table carries that queue-equivalence proof forward; the heap-vs-calendar fuzz in
// tests/sim_queue_test.cc keeps guarding queue ordering itself.
//
// Any drift in the simulation schedule — a mis-ordered bucket, a dropped tie-break, a
// changed RNG draw, a protocol message that moved — shows up here as a row mismatch. The
// failure message prints the actual row in table syntax: a deliberate behaviour change
// replaces the row and says why in CHANGES.md.
//
// The table is checked in shards (`Shards/…/N`), each its own ctest entry, so `ctest -j`
// spreads the sweep across cores.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>

#include "src/chaos/runner.h"
#include "src/harness/cluster.h"

namespace achilles {
namespace {

// Reboot/checkpoint-weighted options: the recovery paths (WAL replay, snapshot state
// transfer, sealed-state restore) schedule the gnarliest event patterns — far-future
// timeouts, cancelled retransmits, reboot closures — which is exactly where schedule
// drift would hide.
chaos::ChaosOptions SweepOptions(bool app_kv) {
  chaos::ChaosOptions options;
  options.journal = true;       // The journal digest fingerprints replica internals.
  options.reboot_prob = 0.85;
  options.ckpt_prob = 0.5;
  options.app_kv = app_kv;
  return options;
}

struct GoldenRow {
  uint64_t seed;
  bool app_kv;
  const char* protocol;
  uint32_t f;
  bool ok;
  uint64_t final_height;
  const char* log_digest;
  const char* journal_digest;
  const char* history_digest;  // Empty without the KV app.
};

// Seeds 0-99 without the app, then seeds 0-19 with the KV app.
constexpr uint64_t kPlainSeeds = 100;
constexpr uint64_t kKvSeeds = 20;

// clang-format off
constexpr GoldenRow kGolden[] = {
    {0, false, "Achilles", 2, true, 500,
     "a1af1368de62c2aa7f2ac67742fffa3a1f133c5f9030831333c1367de9a5336f",
     "c86d9b49c36d1965a113f73bbff039b8cd4491231dea28500a084a5853e4d4c3",
     ""},
    {1, false, "Achilles-C", 1, true, 16145,
     "43fd7293200fb0ecdf337953f9c4744ada6b6c53d4d53533b90e12ff9701f262",
     "2746427c9048bc7769ecb37a0fa76253f290240543d103423a0f98f041ce5522",
     ""},
    {2, false, "Damysus", 2, true, 7888,
     "25616752aaa59b516c026926cf31f31760b23483aa2355dbce57361ee837c5be",
     "02628ba45d61166dea88bfe6c6639097486a1cc3c21ef806c1bd4205e013151a",
     ""},
    {3, false, "Damysus-R", 1, true, 215,
     "baa16d6e2356635ef23f8572aaf0a6fbdb57e993b8429539d252721cfb0e0356",
     "3d4213dc33004847a6b5b0123f7805410fe569a010512bf4476fbb424e7cb8cd",
     ""},
    {4, false, "OneShot", 1, true, 394,
     "c5967fba67cd3e361b58ac2d06e815914541792adc56783e5875140cc15c6f1f",
     "6281c364ce75541d921471fe8203c240b448079d167c6e83025ad9a5b57de569",
     ""},
    {5, false, "OneShot-R", 2, true, 315,
     "eb9ff5782fdcc980156b5c0a718779147d1d6ed454514641588752f0615228cf",
     "b2eff68767b1103117f40589f89d31754341dd20bb80d6b9c6ae7cb2396723a9",
     ""},
    {6, false, "FlexiBFT", 2, true, 582,
     "e077d810e8978e78cae34f3c133d7b4cf4f0afca4d0af9e5d49c1850527ecd2d",
     "6bda02ac85ba0db30d7275588ec9287dcb4104cef683d436c868ef941bedb131",
     ""},
    {7, false, "BRaft", 2, true, 5285,
     "20e8b90a87d8ce106615de7287fee93b26e702c9b1aab264b0e2eb923f261f43",
     "f351eab27caf3a06cc0038d448b08e371ecb8afc8cf3a7e82db7f9094b2657e6",
     ""},
    {8, false, "MinBFT", 2, true, 310,
     "d09347b65d8b804109d1620ffa26ab84a1d4d6ab43388175b387e13a1eb2f3e0",
     "eaf61c93a4712b8c69f0d1a2e716082ce742575c40ca90acd05086b58a8e8545",
     ""},
    {9, false, "HotStuff", 1, true, 2387,
     "c9df1f2ae87415fa2fd40d19c2a7ba6b3d96814dd044f07618142ae6b4231a26",
     "280995f5806db34fc27f8ff2c6c471bc2286c8db11c5d7eadf2655b641e05777",
     ""},
    {10, false, "Achilles", 1, true, 621,
     "9f4970b2e391b006e58280387f1b44639f85872de98ce4c9a36a3d6df01be4d4",
     "dd0e4b3660342c155e92bd540c469cebc2d5993e62317d4f4341ca483dbc559d",
     ""},
    {11, false, "Achilles-C", 1, true, 13560,
     "c84679c8db7f03a25978a3a5e54059f9a1b579053065ef50e4f5ab91aef82e57",
     "79de82e97f374f17ffdc02d5a62954e56f76b5fd332f9e2a9f6233050276f823",
     ""},
    {12, false, "Damysus", 2, true, 830,
     "24c446e78ee0eec6ebedf47c291799ed67f4fde3b7f6c3ea6b0c34de21648c41",
     "19245683c823f2e978f242aa4ccfc62f126f9244b7d6e3564e42494b23e4a744",
     ""},
    {13, false, "Damysus-R", 1, true, 212,
     "765937d448b05a0b57d28594f865db873b1fdc96569921e0dbe43e392aa9b589",
     "6163d1fd9dbed1ed0f2af9f95aacce7c84b155df20563d7180e47de967551f43",
     ""},
    {14, false, "OneShot", 1, true, 13678,
     "cd3e6909910e06d5c1790e2eab12383be3aaa35ff578e9cb5426ce98633e6ccd",
     "f441ccba81be7209eef118dc6976c73acbb5b3dc80a201d140561cd2920c9979",
     ""},
    {15, false, "OneShot-R", 1, true, 318,
     "239186dfe01b4abb7ca8fe8742e99dcdd26a11f45696d35062209d81a5bf8085",
     "6c1a35b7006e2193f49f8e0ebbc851162ed1db22019f1c549cb4cbb00d7ba654",
     ""},
    {16, false, "FlexiBFT", 1, true, 584,
     "e0c26e9cc7d2260effdf874662396555f835eb0a3aadab57541d4bdf91a0af3f",
     "3d774db7bd066bfef50d8c6656b6b0f1e8604621a8871c04b85bbebe77e1329c",
     ""},
    {17, false, "BRaft", 2, true, 5513,
     "003990e89153438088d0c77476b0605285b5533ae2359ecf3795923eee6c8f75",
     "d863d886ecd96f7ee6105294beb37a540f9c784e1e08a58693f0762a9e41bee5",
     ""},
    {18, false, "MinBFT", 1, true, 296,
     "46cab5018aa8f1fe03852272d7d298d85255c5827e5d97350d7afa9365e42a67",
     "99c832f68020cb2180b9492cb8d1e7e79a24b1f6ecd837d24b0ed5a7a6e79186",
     ""},
    {19, false, "HotStuff", 1, true, 2280,
     "12b0d9ae043d1ca7e04bdfb4d72f506815a89544ed5fdbea0b32286953fb530a",
     "0043055111e0d14a309c7b94eddb8e1d85f6fa0496bc4cdee67e2a81d289dcb3",
     ""},
    {20, false, "Achilles", 1, true, 13392,
     "7338ed7f0ee02e4636f5e600748f7e59ccc32d91f74f1e9afdb960e0799a0c1f",
     "1bf70d9ad173c793c3647fc7c219bc0714af44baa589048f16ddcc398426cc51",
     ""},
    {21, false, "Achilles-C", 2, true, 1121,
     "fd0d14f9afae419febb7977f782c64c3ebfb15d07da633ea137513bbdf154413",
     "d5896a110b7a297e860b4a597c0b71999489a03f1a028c260beb72659432ee57",
     ""},
    {22, false, "Damysus", 1, true, 9368,
     "f0260aee104db7b32b36615a70c9a5fa3e0dcabeb4e4811072d0e3e9ceb6a9a6",
     "9d8b614ade60fa24fc5bea2275344ec5e9624c202cb118434b5aa8eae1f837bf",
     ""},
    {23, false, "Damysus-R", 1, true, 217,
     "b557554afaff170af02a4a00ff978ed03315ed2b2083d5de54fb977f49be8b8d",
     "ed8887aef5ce5809790a3138cc50aca739d9a69c0e4a09308fdb87049c369fe2",
     ""},
    {24, false, "OneShot", 1, true, 12937,
     "44a8b804d9323b1472e52e9e1b57e359234d57be8ebb6485aa8497a627aeb45c",
     "9a589d89a30ce179f3a720bfd822df13d87dd148a096490bc4f42510beb4bd1a",
     ""},
    {25, false, "OneShot-R", 1, true, 256,
     "069cf5ec88aff33d8d88e9c82b49f60a99f92bcf47b791e158dee6334e96f5ed",
     "d4484e63745024366980d0b67271e2dc6318da1a3d3a28824d4a51c3e834b6e4",
     ""},
    {26, false, "FlexiBFT", 1, true, 614,
     "24b3e00f506b6276c87844c0054f1b970713408e796d029eed91257b9d6b7ec3",
     "4851a759bd8b461eb6919f98a15bf61d74940ff79bed41dbe36500c2fc48dfdf",
     ""},
    {27, false, "BRaft", 1, true, 5366,
     "28862919d3b7b133245f29a2445b0d6d13bae61f2207e924783a060338c2bc65",
     "98724e59ca9307e73cc4df218451a96d04f53464be0c82737f31f39f8de90501",
     ""},
    {28, false, "MinBFT", 1, true, 311,
     "032df5dec7b8b3c18fe5330aae9ff7faa1322bbedf519afd0fd0632d86b071d1",
     "417cf1bdf4ec5e644da29dfc7e2871b25482bf006266d5b183604da572548abf",
     ""},
    {29, false, "HotStuff", 1, true, 2249,
     "a70bceaaa27112858f6fe25f499620b2faaf09d07f6ba62dadd883469f231e5d",
     "3e4934146e958edff3e59615fb27f540aedbfaaaee742874f215781283643084",
     ""},
    {30, false, "Achilles", 1, true, 14323,
     "529cf201666d323141b234edd4316b0d93cd2de0a9002988a9ddd5ad1116d1c9",
     "e489cb15692e36a727d36462f134ba1696002ac831953e3d14810fec57d2ea81",
     ""},
    {31, false, "Achilles-C", 1, true, 264,
     "dc5d4ceb8d50e3a4dadacac3cb3ec0993d9cb6961c65d4e4e2092858c919666e",
     "d0ad2b53ab83c38626bad59547b9d15945696fb18c07cbb02d7340233c812b4f",
     ""},
    {32, false, "Damysus", 1, true, 367,
     "4c99d873031d9e5e1bc8d643ffb07821394e96826672d7fb069a74bc09184345",
     "494060c5cef470290c1a558e92d9a02c3bba79db1f7cbb4754547901132c29d4",
     ""},
    {33, false, "Damysus-R", 1, true, 112,
     "b110c7c48aba2aa4e67fa0071f04defdbc668897191998bd153feda32a59aed7",
     "0fb245f564fb03faf410e3fa0109fb4b99c500391990e30dd4df9e5306e6bb49",
     ""},
    {34, false, "OneShot", 1, true, 13528,
     "126bc575e2f03448d9622c931bd8d89241fb94beb78bb1cfdbe060014aa5f4cc",
     "07ec69a02522045eaa0eb2948e087580c45b773adde79bc8448280628be3614a",
     ""},
    {35, false, "OneShot-R", 2, true, 87,
     "d515edbaec82dfae7b8c7170ecfb298eb7e76f0557de9dfd319ede34e4caeb68",
     "b68b05def444169009d2d3388107d845561b9aba44df2606911132348594e9cb",
     ""},
    {36, false, "FlexiBFT", 1, true, 615,
     "0a86df06056ccd0c7a735b930b0d69bc888d342192eeaeda21426ffbc7ea8f69",
     "72c3e80c5c1b6f3432fcce588856371f1a5d3d4f8c650cbcc4370be51d07676e",
     ""},
    {37, false, "BRaft", 2, true, 5538,
     "9280d34fcd3e3e3db8f6b60b3b4b38e45aa62e2773c2951f21f8ae4d8427faba",
     "11543b18ff75e67fb179172a28e6186d090b3556f90331cc2b2070aaf9982dc1",
     ""},
    {38, false, "MinBFT", 1, true, 311,
     "40a92184b0c02d85662043712fd13ce5e286ab367f982a185550770b7cd0eac4",
     "05eb0626d9e3b0ba124494e0249937f604d43f0d138b84cf395a5e70ca1f42bc",
     ""},
    {39, false, "HotStuff", 1, true, 2320,
     "17b36cbc71e1b233e7d357296d2f9f35d6b8b96e83800921478cf709d940a0d1",
     "f568b60f94f74586d41c2dcd9537013680ae37716ed62fdd0d4b987bf2ae881d",
     ""},
    {40, false, "Achilles", 1, true, 234,
     "28bfe27d32af8d553d6fa0965e571c709ab30f3fc1952cd0815a81853cfdbeb1",
     "a1737485a6c1e04f0c5653165817fea3390e2c66f6e15930816db73f5c0a89e1",
     ""},
    {41, false, "Achilles-C", 1, true, 356,
     "4e895ca9583a08f8b0d70e68c8b678aeb0000eadd99762bdd2c4d1c89e508ee3",
     "8a295d9c536efcc1f83fdd62b7884db9e321c52d1882f43b84508ed1c92dd573",
     ""},
    {42, false, "Damysus", 1, true, 9252,
     "adafddb17389a9be53fbc1f817b7863de1eb2fd73b08385e45e87b719aa4ea15",
     "ef58d99c1082c21686f67501e8a606eed8a5f67d445d15fd02e61e4c2526174f",
     ""},
    {43, false, "Damysus-R", 1, true, 209,
     "6b9da5fdeae514fdc2f20734b3c9e84a21a9ddf6667781a2e7980a8f866106bd",
     "3c8beb5a4312c5f88993e7f332066dc034d1946febefd686643cb8acc634fae3",
     ""},
    {44, false, "OneShot", 2, true, 1177,
     "79c7c9444e541dcd08ffb4a818593e84b3ba0ddb679412ca3de640913831fce0",
     "aa1a1d09460558401745d560f9310bde67447ec1eae46845a1d0d5c45980d4fc",
     ""},
    {45, false, "OneShot-R", 1, true, 255,
     "c4ed3cfe1b09949e3af06753ba19fe57d7f36b72e880a087a99112661a1251ec",
     "d5a6337298e5e761d13c83393bd8ec226f5ce84dd12ebe9bf410404131d99a3d",
     ""},
    {46, false, "FlexiBFT", 1, true, 612,
     "25525116a0f2c1c02dbd500e7b89ffb8fbcfe39ce8932eb2616b219bc3e323f6",
     "07fd9f278a7fc4234d0b8b98e8266679bc126289a1b5d166a51918e13d0dc439",
     ""},
    {47, false, "BRaft", 1, true, 5492,
     "7b9773060a04cce869278d5c1fd568b257e02d8ae3479a59f644f90ddfe02f36",
     "a24027278727e2ece489e7206293e080911e90830bf4416dec7049b7eaf87596",
     ""},
    {48, false, "MinBFT", 1, true, 289,
     "fb6172436adeb5305815e0fdbb61cf88f5ce12985e1ef84025f2fee4ceae8e16",
     "21660faf2c974a0b462afa8337b69379d67bfe02823ea79c2a7df5157ad3f957",
     ""},
    {49, false, "HotStuff", 1, true, 2310,
     "e99dcca8de262ac97a5488fc1092c0b3b5cdd44511539e3eaa1ae9cf48e7aa21",
     "27dfc90a5c65a36a4bfc149f08c991a30fd64c01497e33e1c0a1db63689ab8f4",
     ""},
    {50, false, "Achilles", 2, true, 751,
     "f34927c33f362e353884d6fa62e5f134a11246494a8b439bc9bc6635ac2e56b2",
     "ca63278a262df074a816fd0170bbcfbb832c0e04e84f6954a2d36eba838d52eb",
     ""},
    {51, false, "Achilles-C", 1, true, 16992,
     "424846fcaeea250e17247c72da2ad0ce07a6c5ee8355be108b712d4b1ecece46",
     "7b18d1461e813b86a883eee4edf6607e4695c43fa35a031efe9b8592746aa5e8",
     ""},
    {52, false, "Damysus", 1, true, 8977,
     "41bf76aaf3aa283418c3814e22b68a9547f94950a7d759adcfdf33d806ed7cc5",
     "fa705c34ba3979b44f260798eae9685bb1c05f3f0ea44d3fcaddf750b3da651f",
     ""},
    {53, false, "Damysus-R", 1, true, 193,
     "aa2846c5394c3797d5cb38d70e75461de04cf9e6703f3f9273d193a1d48ccdab",
     "394fdb4f1c3bdf49d05bc3a63874e67609b69ba2f8952cf432023ca321141f09",
     ""},
    {54, false, "OneShot", 2, true, 584,
     "2ff08fa50dda37d7aa55f1580526ad9a44af92f58a4f93dbfea852a45c38b20f",
     "36c2aa0161e347144bbb6ec0b3c32d95f1b19562768b7f133f61f8681e85304c",
     ""},
    {55, false, "OneShot-R", 1, true, 260,
     "fb4d3780f32772db5e6b5b0787d6c22223b92311aa5637d7c1a78b7c4963f035",
     "901fb5906a243c63f1a0f0ee4e5abf4fa67f656a00ecaa885d84482e4f449ee9",
     ""},
    {56, false, "FlexiBFT", 1, true, 615,
     "c9d85653fbb4647dc29b8651e10820e1a44c180142f730f91dee257d84590e3e",
     "b6accf06a6a2e7681ffc47b1910c517d1b547686c4c4464ed3a4374ca5f27e14",
     ""},
    {57, false, "BRaft", 2, true, 5492,
     "1fb4b74fe104458f6bfd624eec0360e28cef248a07dd27d8244f1f624b4462fa",
     "a86a00b90a9face6bfe085c073d008a7b321fd10bedc12863b07f9775bbba5ca",
     ""},
    {58, false, "MinBFT", 1, true, 313,
     "334e385bedf18e2c75635253cd5d44f73cab12eba3d7353b52720a3d76d23b45",
     "10d45a392bfbecde87c51b68fded78139dc8a3e4f0a5cbcc6288877c3c1cefb3",
     ""},
    {59, false, "HotStuff", 1, true, 1052,
     "b8feff723880b2f86cadf0be11fa4b2dc1e2d561e3d800dc3a941dff9c6e0dba",
     "204c3ed91abc32d3e6055023e5e27f77d2c47861057225ac08751d130a8a88cf",
     ""},
    {60, false, "Achilles", 1, true, 672,
     "19731fc6586a3e09b88e76f2b47017211b3bbb29af5f33b7764d60d77c951b86",
     "93331c5338635f37c710d3d67efb0e61f75d627cd1e5205123a4af77bae5eb2a",
     ""},
    {61, false, "Achilles-C", 1, true, 16840,
     "c1cb04c53b8c123800c8a21b4d663ade68e4a3bc8955503cfdf047c4680418a4",
     "f63a5e1b8f5fcf9eb3480cc8dfd15bd73f534c6e472aa750722ae5a2181cf370",
     ""},
    {62, false, "Damysus", 1, true, 9254,
     "2fbc8e02ad80f10a947d65c6703215cbd0a7156d0615812c0cdeca9633d3dfae",
     "c7c68e1186569a91beb669bc784dcd8858c20d87dbcfbd5e199e21674a6115b6",
     ""},
    {63, false, "Damysus-R", 1, true, 172,
     "1070dc634d91aac2e8d1dd770cb3400a0f2f779fc8abc8b7188c3c3b7c109ffc",
     "c74db8294cfc71d1b6d84832876d86ee7377340625027703a7f346d6f2d71745",
     ""},
    {64, false, "OneShot", 1, true, 13360,
     "d5fe6a8378e5a1b6c8e66e7c2e5b7c782bf65bad1d2d228afb8b47b3cdf34da1",
     "9fc770a66f551d54eaee3234bf537b546c9f722a466de723df4ae9d5ed932dc4",
     ""},
    {65, false, "OneShot-R", 2, true, 316,
     "6d25437567f21435d79e70b4852e3b28b05e6efdb9157b6fa6e45ddea1da56e7",
     "67498b25fa8ac9b7d1cb4a73fdb8a683489b97d3f3aa73d3ccdcc3d9f6f72cbe",
     ""},
    {66, false, "FlexiBFT", 1, true, 598,
     "f7a83c4821522a09c78af6fdb23b9bc1e4ccc5c5dce0b984b6aba4ac668f1fd4",
     "59f44f1f86c0d1b4adceacf6e4721105c9df07a6c12fbc8d1494b0252641d74e",
     ""},
    {67, false, "BRaft", 1, true, 5635,
     "4c437d6dbf2ac14a15ebdd7f15cd9909c46274000c85cd9f04e6470c89f10e72",
     "70491509228184b38cf3c5b1ddacd9c7896be1e1a8b54f50da174f24ce711f6d",
     ""},
    {68, false, "MinBFT", 2, true, 312,
     "3ebe7af0a08c75e12d9b1f0bebb5369be31162081f2ce4b5308e26e04c03e50a",
     "d7f026dc3b9327ecd9149623571fd64c687f3f5f6280374fe8238f21f7a6684a",
     ""},
    {69, false, "HotStuff", 1, true, 1565,
     "52c4bdcdfaec06c9fee67e28a6f860993811c7418b5ef4bfd8919719329b63e5",
     "b8ce4e03d3bff1573ddec8ccf234df8ac037e3e176772e465c72b2701aaa081a",
     ""},
    {70, false, "Achilles", 1, true, 14145,
     "9ff2b81547cd525d8f7639f2524df8312de23795b536373981fa2f568337c1de",
     "4ce1acb07ae8e43ecff64b2029bf3fc5cc18e71d043897e027d01bea132a85bb",
     ""},
    {71, false, "Achilles-C", 1, true, 264,
     "279af52e29c6fc33860894bc3df3c8e19b3c685e4483d433acbc0e9b44ae2cab",
     "2c95f5c1065041722b1a2460eb966e45c52e47f43b91a0911eadd5569b2ae88e",
     ""},
    {72, false, "Damysus", 2, true, 7740,
     "01b543cb4070c4e1dd8727c646a264738d8225c1aa6b3f238f0e63b5486ddcf6",
     "e31c56d097c61ca9ba7e4adffad6b6a117d279a06c3419c504012d576fc0b8ed",
     ""},
    {73, false, "Damysus-R", 1, true, 215,
     "ac347b661c86a1aa56f933e8293db4221e62e671145a15a13aa48fa94e17ae20",
     "eeb08011766ca42b334e0028346cb7fdebf1d38e59d8f6bf58c779f7ffa7832f",
     ""},
    {74, false, "OneShot", 1, true, 634,
     "cdfb57ed9f47a67b136b6000cb9ff8f1afef1b99694721eb158d869e85f079ef",
     "9c5ac92538cb491aad4cc729bbbf3bbf18cdbd9e8a49a143e84063b887996e95",
     ""},
    {75, false, "OneShot-R", 2, true, 317,
     "a503a18b0001770aa85044ad7fe113d83ade51b84e6f5c26517014c1fa06f095",
     "0056d248308cb139b8c79b4745efddc343b7010f9c7db31ceef03c2d1731a043",
     ""},
    {76, false, "FlexiBFT", 2, true, 582,
     "d7c4c34f766ce3fc9e79c2bdee011ecdc732e35a36f17b705c269f62176daffe",
     "3e2049e76cddd871356c472ec51f8dc87a5502c79b0ef703fe2d07ac28a62300",
     ""},
    {77, false, "BRaft", 1, true, 5567,
     "5281c122e41f53c5e43ec35dde125524f058405a4f4fa6968e42a21ed42f6a12",
     "f69d6e87626383fbb167d1b7ee5b9ae4521e88f905953d3d985023595fc883e7",
     ""},
    {78, false, "MinBFT", 1, true, 300,
     "a53a585c392b509b2a5c813145e31a83ae937ecb29987c46d3f228d7f23cbcdb",
     "c8244967ed431b789dce3a2378bcd0719709938d8c08342c11ee2f583cd6e721",
     ""},
    {79, false, "HotStuff", 1, true, 2238,
     "55627315456abe49d63ff9e5119355ea4947ea6e3ef606ab4f004fc8bf462f06",
     "d4e705e451a555b1765aea6ebec3f5d667ee39dd2f1c189971a8626f78a6a148",
     ""},
    {80, false, "Achilles", 1, true, 13532,
     "34419d633fb1c6c6e5b703e0bf748b75ea502b2523cb36e5eeaaa20cbe2a752a",
     "79869780e4d850794c8f03fffa1c40f471ce181b77852e960361c0e4e32e12a6",
     ""},
    {81, false, "Achilles-C", 1, true, 309,
     "06cbab914bfef63598bde740dede5ca69951996e9ae7448b7dc4c011c398d804",
     "05a6ef28a785df33ac6161d2d7ec88a4ef96d4d7e956cbf35ed1f87f8a3cd0b6",
     ""},
    {82, false, "Damysus", 1, true, 8746,
     "ec576536adbe08df78fc4e13dd508732bee34b157b4864858592b1be5ec98f95",
     "510804cb6b2dce62987ded66db219d8cfd975388e7fdf12c45f5d247815e85c9",
     ""},
    {83, false, "Damysus-R", 2, true, 212,
     "0d368025ebdbba56f51e4bca062b4e1c491eaed1a7b42407d77afeda0417f316",
     "9e58c0336f78cf5e897637cf39684e0a5bd098ce46ad9414cde0dc8290eb32cc",
     ""},
    {84, false, "OneShot", 2, true, 11974,
     "3d9bdc63965bb2345290c99adf28717f64720cab70c32f7390fe05cba8ba97ea",
     "8dec3b113c486189be4cc0f18c2a186876a0b76e1464315bcf10f7a1109c6bd9",
     ""},
    {85, false, "OneShot-R", 1, true, 199,
     "a8bec20ca1f26b6bf28291524269dcd855657b8623236b039c876279363d9fca",
     "db0789571aefde80751ad7f99ebdb9cdaed0ce3765edb5727846b87ea1ffdfa7",
     ""},
    {86, false, "FlexiBFT", 1, true, 360,
     "8aa438bca32aaf830c3e732bce697f01ef5c325d978a9d13cf2c768e026211ce",
     "ca85198525fe97551be1b4f552bbdc394c565e61360fa2f8f7b497c2aa2755e9",
     ""},
    {87, false, "BRaft", 1, true, 5517,
     "6a3225e0e27672a23e661666b9026ebe9e8499765a090d6163225622d312cccc",
     "a4e7d4be8ac30960f193b19d90bc1767396ca64bb6182aad1d582d788bff78a8",
     ""},
    {88, false, "MinBFT", 1, true, 43,
     "a8445e9813a1edf75a10f610231456695bc5cc04ff16038c8039bd58dcb6d7dc",
     "4c867984d6bcf8a9953c6cb8d065ea4764ea3f04a950b063498cb92470757f9e",
     ""},
    {89, false, "HotStuff", 1, true, 2352,
     "02d3ffea43373c977a8ad494c4d0737e80799f0c2788af9a5bfc7f21ada26605",
     "2c0fe39cc4d8b563978f4b237aebdec274c77acd2082aeea4cbe183506370fcc",
     ""},
    {90, false, "Achilles", 1, true, 13436,
     "8be043878f2f3cd32923729122e0c9309a1ffb42349d3eb3257b5da481f30e24",
     "bf4dac23e504954bd2455cbf15806fb3ff72473ae96fd9ad126d680923490f22",
     ""},
    {91, false, "Achilles-C", 1, true, 16248,
     "951ab0a185d304e05c961edd9e9d9e4375da63ec5da9cfb1e433145bd4816d1a",
     "d0b3aaada43bfd351bd46f7f3427ba2a68583f2a68474939bfcee38a9852bee8",
     ""},
    {92, false, "Damysus", 2, true, 205,
     "b0edf0b6c156f374e1fc4485466d914c7af888d8cdabe24ae369850b78e64dca",
     "349fa1b1b44d95a1937862127035a874324ed2427c5e9c53679bf305fb88429d",
     ""},
    {93, false, "Damysus-R", 1, true, 110,
     "ade1b8880d81adcff0e67797a9b420e8bb0fa4dcbe60f5f0248a0209e7d4bef9",
     "8288a48a8fc73adabf9011865bf4d53a70ea13bb37e32414667bc011d554fd96",
     ""},
    {94, false, "OneShot", 2, true, 12167,
     "5c41e3b749324897c7792216131d4d1d5a81c771ad5017b72d9a74fa65f00e19",
     "2bd89ebb72d2a3b628f1c2db808024cd91f7e0e4522ddb507d6d530b0882dafa",
     ""},
    {95, false, "OneShot-R", 2, true, 295,
     "b66571a06e1e78a581905d7a94de9fb60c9f40a33557c5c300d86a5a0bc22ba0",
     "ee8b18ca4420780443d9a9b4943dd0b52070b86995cf55664522a04092873869",
     ""},
    {96, false, "FlexiBFT", 2, true, 610,
     "e09d1ab12268cebb1bf4f5890fad7170b0b08f75987f47abcc32e9d146ab3baa",
     "1a9fda32fd2349fbdec0f8e5b0b1ffe07314545605e051bdd6ef500a14a7d217",
     ""},
    {97, false, "BRaft", 1, true, 844,
     "41822aab2d43359077b1f99fe26592c6adb18b940640dab539426badc6bd5dd4",
     "aceac42f69552c3a77e542699e38da58ee77b43aeb4ec304cb52675ff4c15036",
     ""},
    {98, false, "MinBFT", 1, true, 311,
     "eb7640149defdee43d83f6e8c1919c86e1fca6c7e331fb7859606203ac66c093",
     "3bfc3aac917d34742e783bafe7540a98b490a99b486a25a4c7864098068a86be",
     ""},
    {99, false, "HotStuff", 1, true, 346,
     "e931cd6100eab5635dc3c2638a2db39bfa3538f003b7ff91fc8902076df5c089",
     "51ff90db34e33b02a68f1758b6b6da7bdf952ff21f225f5ed3ab80200a0d11bb",
     ""},
    {0, true, "Achilles", 2, true, 487,
     "eed7c980ac5a65bc7455e4ef04e707ffa3eb50a0cb72b06554a32e8e776f7a43",
     "c040cd837a238f2b0f3c978352c852cf4462d76efd5653719e7e1e502ed7bd64",
     "3e5991986124224e4da38a0d34ab3a2f8b8fbdf7cd1ee2b7a5673f9c13671826"},
    {1, true, "Achilles-C", 1, true, 16104,
     "566af4d2a527cb9ce8fc65286703add410944f9b1a73d4117268928824bb4d74",
     "48cc29e01b3460307bb71ca1b00fc813a5f384d475464827c7445db5d2cc9556",
     "b3df0fe9f85296532db38f4edd17f5f7a5180ec47d26f322ba273e8405af986c"},
    {2, true, "Damysus", 2, true, 7891,
     "a91581d1c72e9e96fa648b14e61bb2444e90b08b2be1c94c4d6700f037594e2f",
     "138bf24010f438099732ef923fcf79363da329e82505e2c757ecf3892b637e91",
     "5fb501f7ae4056fc7bb11891ca481ccebb27d3d7c2c705c3fef616c242232d19"},
    {3, true, "Damysus-R", 1, true, 215,
     "c7b2d7bb5432c6d95348fe975b99ee9e3526372ff57a49cba5b7589cd2619e6a",
     "d14ddd64c4ace04a53b49884e823273d005bf94151ee48c47cb1469f34279b7e",
     "f9d9bc00357d65090f41b0ea756db07029e719d1f1c5b9303e678af0abf895b8"},
    {4, true, "OneShot", 1, true, 361,
     "e7f758d6301085e0883341e1a79ed1de6f6b1aeed80a9e07185ededc52e4c4c6",
     "893a706405f4d2499e29b83f23a0f99c832dcf2b1cd8dd6caa461c91f6fe540a",
     "fbaa47531205bdab72ac36ca08ac7cf84b5764df2685956455090ab3a9f91ed4"},
    {5, true, "OneShot-R", 2, true, 315,
     "5eb5aed9b5ce28d1d6a7530f8413e0c74b0c323321172489ec920357b076644d",
     "058c5a8b7929629bf3e5dc267835e3254c6dc65f717f49f90d7ce78ada685e5d",
     "69aefd461b9ec3835db42b1f262e86cd54ac0dc4f469deeaa155d8028fc4c8db"},
    {6, true, "FlexiBFT", 2, true, 581,
     "f28e48fd6e897250bacce08b46b126471593495688fb3cc9f59791f278b4d6b2",
     "b4d5e9bbb15b763123653a97ada35f069dede2b554907d520e8a2d137ebad031",
     "1181e5a0595ad6110b7da355be78e8b37ab89e6901373032ba170a833ecffdb7"},
    {7, true, "BRaft", 2, true, 5296,
     "c5883a2f36b160f8ffd0c9a995b17afcd5086fa108d0245f0cd7510e511a44d4",
     "281619a6fb96c7d3818704cde1c4017923c6cffc6a19d2182291fe7ed52c45d5",
     "40f208e5860d101b1713087a8a2d2f0c10d44fef73550158557470d945df18e3"},
    {8, true, "MinBFT", 2, true, 310,
     "cdb0d374df70a24ff6a94d1b1a709196b9522ac8a9dd11eb4702ea2b1d452856",
     "081f02f04cafb1a0cbd2dd0e6696b42fd303e75eac2ced95727736e208c425e7",
     "9da774da762cf4a1cbe1cc284c53808818304c220aa3f63d7fd9c75dca646649"},
    {9, true, "HotStuff", 1, true, 2386,
     "14179f5fa78d07d19a34b475c4d1753bfc7aff656f3ef97af1ce932d7578a0d2",
     "2c22d1edf53d641fc1c8bb8b6b0faf630dd4e35a0a50c1484f358124aaa3c1a0",
     "d9e11dd85be7ea3036f69a8745c9c2c08c03de94857f715b64abb37c1c6d4f7a"},
    {10, true, "Achilles", 1, true, 625,
     "555ac7b371fbd2b42cfeb9426b15f2c5913f72382e656a8351b65eeada79b89a",
     "92e700052da1d172821ef16c0bda490b37910df0125e90839389e50de386ef42",
     "147d6c60d893bb6bfd13f98e74e896706849e03db9c39893188a7c5058cd7c13"},
    {11, true, "Achilles-C", 1, true, 13120,
     "860d9c10b05894cbc6de259c379d6b22f56a597db0699c6f2ed688b5cd9290da",
     "ed92a0b2cb88bcd72f8960473059625f9a055cb9419e6c248f6192763c0aa85b",
     "236fa4079a494d4f25c168d5b6ea3e2519fe3df57166c68136d97022a740f171"},
    {12, true, "Damysus", 2, true, 766,
     "3f12381202faf2a1a2d64176989a8fa09094ad292fcd47d0756ee33e68867313",
     "f97a95005c09cdfcfa1fc8a1286a5bf57ef032856bc0f7ef60ba0129bc4ba3c5",
     "e1517e1e7e6f4c9f6ac74c0dd27c85f9315a11b5ce5bc0a25c6bc9e00bbe3159"},
    {13, true, "Damysus-R", 1, true, 212,
     "59530bbfa9fa49ed6e55b5b8e07f8948a12d61041e6512e0b02130c632d3ea62",
     "9e98f861f926bdb38969107336bbbe6517b2d99fc035b124026acccb3c60aee3",
     "db4be9de8e01ad50c37985e1e5a7c9de32a571c13dfde12f4a6e944a7938fb32"},
    {14, true, "OneShot", 1, true, 13643,
     "43e2b4b3ba337a6a8e295063e811ca9288782029bd7ae9539165cebe126df99e",
     "78404781e57b880d4bfb0f36d3a8b9668b41b6dd03b547d0d120a128db57fd3d",
     "d429100be7f561268c8fe9a7fbccfac31ba45dd5d23a0f5f29e8c027f929be4b"},
    {15, true, "OneShot-R", 1, true, 318,
     "7191d01cc48152cdb4ca4633e677451af471b06e5588bb19d1e306221ede5e98",
     "02877c96113e92bb1b66c7b877a53c735e4c85015e1174853f69d8e839b709d9",
     "2be08bfe053b3c82bfd3aa5a2e4865ef1dfda9d947ef34fc90baac247fec99d0"},
    {16, true, "FlexiBFT", 1, true, 583,
     "bc238db4518ad0d9a25284ced4700116ed62c5006d18a53682ad8fa9723ff151",
     "656b9eb28bfa556caff6c1633f73001c42651273052a202804a3d922ff2356e6",
     "4d46a3b2894b880ca7672a695cd56d2619258c25627167b9b3d0388f716fb826"},
    {17, true, "BRaft", 2, true, 5501,
     "e2cd60970a8014a49f59cf42224cd2bda5c4f9a2da0da2d82b2a2c3d458c3844",
     "ae05ca12a679c39964002164804fd9cba019318cb6acbc2fb7676919fae54afa",
     "f20c70aadcab9c72a9d999fafda398e460d78f23e3112786b88d69f2445c4842"},
    {18, true, "MinBFT", 1, true, 295,
     "1b6e7be325634c2e6918001225271bf59a9e162c6a8afcb5b2de9250938b66d4",
     "15e3024161255985cab79ade83dabe8c93e14cd7bd439233297774f797b1e00b",
     "2af14433d8cd2573063a34fd16ac63c3cf985cf02c255eb5a84e8dc0068e84d0"},
    {19, true, "HotStuff", 1, true, 2279,
     "b379f7e37578cb0f991ddfae2d71ea2d13aaff97e775559cd7293a339ee4d528",
     "47c8d599ec4a07b11dcf64f00602d6b78927d6e9515729d46d32df805b3abd64",
     "cc3e54c79e5ed1dd72f91d16ab4a348b7ab545d9937ce324ea9b57542a657e80"},
};
// clang-format on

// One row in the table's own syntax, so a mismatch message can be pasted in as-is.
std::string RowText(const GoldenRow& row) {
  std::ostringstream out;
  out << std::boolalpha << "    {" << row.seed << ", " << row.app_kv << ", \"" << row.protocol
      << "\", " << row.f << ", " << row.ok << ", " << row.final_height << ",\n     \""
      << row.log_digest << "\",\n     \"" << row.journal_digest << "\",\n     \""
      << row.history_digest << "\"},\n";
  return out.str();
}

TEST(SimDeterminismTest, GoldenTableCoversTheSweep) {
  ASSERT_EQ(std::size(kGolden), kPlainSeeds + kKvSeeds);
  for (size_t i = 0; i < std::size(kGolden); ++i) {
    const bool app_kv = i >= kPlainSeeds;
    EXPECT_EQ(kGolden[i].app_kv, app_kv) << "row " << i;
    EXPECT_EQ(kGolden[i].seed, app_kv ? i - kPlainSeeds : i) << "row " << i;
  }
}

constexpr int kShards = 12;

class GoldenDigestTest : public ::testing::TestWithParam<int> {};

TEST_P(GoldenDigestTest, RunsMatchTheCommittedRows) {
  const size_t rows = std::size(kGolden);
  const size_t shard = static_cast<size_t>(GetParam());
  for (size_t i = shard * rows / kShards; i < (shard + 1) * rows / kShards; ++i) {
    const GoldenRow& row = kGolden[i];
    const chaos::ChaosResult r = chaos::RunChaosSeed(SweepOptions(row.app_kv), row.seed);
    const std::string actual = RowText(
        {r.seed, row.app_kv, ProtocolName(r.protocol), r.f, r.ok, r.final_height,
         r.log_digest_hex.c_str(), r.journal_digest_hex.c_str(), r.history_digest_hex.c_str()});
    if (actual != RowText(row)) {
      ADD_FAILURE() << "seed " << row.seed << (row.app_kv ? " (KV app)" : "")
                    << " drifted from the golden table.\nexpected:\n"
                    << RowText(row) << "actual:\n"
                    << actual;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, GoldenDigestTest, ::testing::Range(0, kShards));

TEST(SimDeterminismTest, ScriptReplayMatchesSeedRun) {
  // Replaying the *artifact* (explicit script) lands on the original digests — the
  // reproducer a failing CI run uploads is self-contained.
  const chaos::ChaosOptions options = SweepOptions(/*app_kv=*/false);
  for (uint64_t seed = 3; seed < 23; seed += 5) {
    const chaos::ChaosResult original = chaos::RunChaosSeed(options, seed);
    const chaos::ChaosResult replay = chaos::RunChaosScript(
        options, seed, original.protocol, original.f, original.script);
    ASSERT_EQ(original.ok, replay.ok) << "seed " << seed;
    ASSERT_EQ(original.violation, replay.violation) << "seed " << seed;
    ASSERT_EQ(original.final_height, replay.final_height) << "seed " << seed;
    ASSERT_EQ(original.log_digest_hex, replay.log_digest_hex) << "seed " << seed;
    ASSERT_EQ(original.journal_digest_hex, replay.journal_digest_hex) << "seed " << seed;
    ASSERT_EQ(original.history_digest_hex, replay.history_digest_hex) << "seed " << seed;
  }
}

}  // namespace
}  // namespace achilles
