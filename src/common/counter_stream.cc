#include "common/counter_stream.h"

#include "common/pmath.h"

namespace collie {

namespace zig {

// Generated by tools/gen_ziggurat_tables.py; tests/common_test.cc re-derives
// them from the recurrence.
const double kX[257] = {
    0x1.f493b7815d984p+1, 0x1.d3bb48209ad33p+1, 0x1.b981f3878fdb0p+1,
    0x1.a8fdc78947758p+1, 0x1.9cbee014057a9p+1, 0x1.92ee0946f4494p+1,
    0x1.8ab0fbfaa7c12p+1, 0x1.839030529f232p+1, 0x1.7d42df4d6ce8ap+1,
    0x1.7799556090671p+1, 0x1.72728f05f7a33p+1, 0x1.6db6b8d09e230p+1,
    0x1.69540be9fe5c1p+1, 0x1.653ce7b006ae9p+1, 0x1.61669cf861e4ap+1,
    0x1.5dc8a243ad0fdp+1, 0x1.5a5c08b718dd8p+1, 0x1.571b1a94ae41ap+1,
    0x1.54011523a7e41p+1, 0x1.5109f53e9ac40p+1, 0x1.4e3250dcd8901p+1,
    0x1.4b7739d6b5a26p+1, 0x1.48d62759c43bap+1, 0x1.464ce44a73a13p+1,
    0x1.43d9815545e91p+1, 0x1.417a49cb9e5d7p+1, 0x1.3f2dbaa60f472p+1,
    0x1.3cf27b31704a3p+1, 0x1.3ac7570ae88f7p+1, 0x1.38ab392564107p+1,
    0x1.369d27a33a83dp+1, 0x1.349c405ae12a0p+1, 0x1.32a7b5e68a4a0p+1,
    0x1.30becd256aeebp+1, 0x1.2ee0db1a978f3p+1, 0x1.2d0d43196db96p+1,
    0x1.2b437532a0a51p+1, 0x1.2982ecd770e77p+1, 0x1.27cb2faa8592dp+1,
    0x1.261bcc77658dfp+1, 0x1.24745a4ac9c23p+1, 0x1.22d477a6fd3eep+1,
    0x1.213bc9d04cc81p+1, 0x1.1fa9fc2e2d900p+1, 0x1.1e1ebfbe4ae38p+1,
    0x1.1c99ca971a693p+1, 0x1.1b1ad777f2f8dp+1, 0x1.19a1a564eebabp+1,
    0x1.182df74d21260p+1, 0x1.16bf93b9deef2p+1, 0x1.1556448602e3ap+1,
    0x1.13f1d69c4096cp+1, 0x1.129219bbb5d34p+1, 0x1.1136e04207040p+1,
    0x1.0fdffefa69fb5p+1, 0x1.0e8d4cf116591p+1, 0x1.0d3ea34aa3d2ep+1,
    0x1.0bf3dd1eed445p+1, 0x1.0aacd7571c0c1p+1, 0x1.0969708e8a251p+1,
    0x1.082988f632e14p+1, 0x1.06ed023a72665p+1, 0x1.05b3bf6adb37bp+1,
    0x1.047da4e3ef5c4p+1, 0x1.034a983a902a8p+1, 0x1.021a8028fc944p+1,
    0x1.00ed447d3a072p+1, 0x1.ff859c118f605p+0, 0x1.fd360d22fe77fp+0,
    0x1.faebb187122b9p+0, 0x1.f8a660489977cp+0, 0x1.f665f20c90162p+0,
    0x1.f42a40fb74d67p+0, 0x1.f1f328ac2531ap+0, 0x1.efc086101eca2p+0,
    0x1.ed9237610a732p+0, 0x1.eb681c0f76f00p+0, 0x1.e94214b2abf01p+0,
    0x1.e72002f97fe1bp+0, 0x1.e501c99c1d17ep+0, 0x1.e2e74c4ea46ebp+0,
    0x1.e0d06fb49d211p+0, 0x1.debd195522e2cp+0, 0x1.dcad2f8fc4904p+0,
    0x1.daa0999206e67p+0, 0x1.d8973f4d7fb9dp+0, 0x1.d691096e7f11bp+0,
    0x1.d48de1533c640p+0, 0x1.d28db1037ef1ap+0, 0x1.d0906328b8f68p+0,
    0x1.ce95e3068e031p+0, 0x1.cc9e1c73bd689p+0, 0x1.caa8fbd36a2a4p+0,
    0x1.c8b66e0eba610p+0, 0x1.c6c6608ec86ffp+0, 0x1.c4d8c136e0d17p+0,
    0x1.c2ed7e5f07a28p+0, 0x1.c10486cec169bp+0, 0x1.bf1dc9b81ae7ep+0,
    0x1.bd3936b2ec09ep+0, 0x1.bb56bdb85256ap+0, 0x1.b9764f1e5f739p+0,
    0x1.b797db93f8925p+0, 0x1.b5bb541ce3d01p+0, 0x1.b3e0aa0e00bfdp+0,
    0x1.b207cf09a9858p+0, 0x1.b030b4fc3a117p+0, 0x1.ae5b4e18bb334p+0,
    0x1.ac878cd5af5ccp+0, 0x1.aab563e9ff107p+0, 0x1.a8e4c64a0313cp+0,
    0x1.a715a724aa9a4p+0, 0x1.a547f9e0bbb88p+0, 0x1.a37bb21a2c85bp+0,
    0x1.a1b0c39f93692p+0, 0x1.9fe7226fad24ap+0, 0x1.9e1ec2b6f7411p+0,
    0x1.9c5798cd5d92cp+0, 0x1.9a919933f99bfp+0, 0x1.98ccb892e2a31p+0,
    0x1.9708ebb70d5eep+0, 0x1.954627903a28ap+0, 0x1.9384612ef0afcp+0,
    0x1.91c38dc288347p+0, 0x1.9003a2973b58fp+0, 0x1.8e44951446a27p+0,
    0x1.8c865aba10c9cp+0, 0x1.8ac8e9205c043p+0, 0x1.890c35f47f72dp+0,
    0x1.875036f7a7ec5p+0, 0x1.8594e1fd1f5bdp+0, 0x1.83da2ce899f15p+0,
    0x1.82200dac88676p+0, 0x1.80667a486ea1fp+0, 0x1.7ead68c73dee7p+0,
    0x1.7cf4cf3db22fbp+0, 0x1.7b3ca3c8b1409p+0, 0x1.7984dc8babd93p+0,
    0x1.77cd6faeff449p+0, 0x1.7616535e5731fp+0, 0x1.745f7dc70eedcp+0,
    0x1.72a8e516914c6p+0, 0x1.70f27f78b68ebp+0, 0x1.6f3c43161f854p+0,
    0x1.6d8626128d352p+0, 0x1.6bd01e8b343bbp+0, 0x1.6a1a22950b2b1p+0,
    0x1.6864283b13136p+0, 0x1.66ae257c99671p+0, 0x1.64f8104b7260ap+0,
    0x1.6341de8a2b0a1p+0, 0x1.618b860a31fc2p+0, 0x1.5fd4fc89f5e36p+0,
    0x1.5e1e37b2f8cd1p+0, 0x1.5c672d17d733bp+0, 0x1.5aafd23241b56p+0,
    0x1.58f81c60e8511p+0, 0x1.574000e555f75p+0, 0x1.558774e1bb2c4p+0,
    0x1.53ce6d56a664bp+0, 0x1.5214df20a8b57p+0, 0x1.505abef5e555ep+0,
    0x1.4ea001638a601p+0, 0x1.4ce49acb311d8p+0, 0x1.4b287f6024159p+0,
    0x1.496ba32488f2bp+0, 0x1.47adf9e66c333p+0, 0x1.45ef773cac75ap+0,
    0x1.44300e83c30a1p+0, 0x1.426fb2da6745ap+0, 0x1.40ae571e09e71p+0,
    0x1.3eebede725a80p+0, 0x1.3d28698561ddep+0, 0x1.3b63bbfb83d01p+0,
    0x1.399dd6fb2b262p+0, 0x1.37d6abe055868p+0, 0x1.360e2baca52d3p+0,
    0x1.3444470265e9fp+0, 0x1.3278ee1f4b92ep+0, 0x1.30ac10d6e48d5p+0,
    0x1.2edd9e8cba98bp+0, 0x1.2d0d862e1b850p+0, 0x1.2b3bb62b82ed7p+0,
    0x1.29681c719d719p+0, 0x1.2792a661dd37dp+0, 0x1.25bb40ca96bfap+0,
    0x1.23e1d7de9c31ep+0, 0x1.2206572c4c6e8p+0, 0x1.2028a9940a09ep+0,
    0x1.1e48b93e0d42bp+0, 0x1.1c666f8f82ac8p+0, 0x1.1a81b51ee6d84p+0,
    0x1.189a71a78da30p+0, 0x1.16b08bfc42019p+0, 0x1.14c3e9f8e913cp+0,
    0x1.12d4707310fb9p+0, 0x1.10e20329515e9p+0, 0x1.0eec84b160867p+0,
    0x1.0cf3d664bcc7bp+0, 0x1.0af7d84bc610fp+0, 0x1.08f869071f408p+0,
    0x1.06f565b72a00ep+0, 0x1.04eea9e16a5fap+0, 0x1.02e40f5398f98p+0,
    0x1.00d56e04234eap+0, 0x1.fd8537dfa2ea9p-1, 0x1.f956d9e87d7aap-1,
    0x1.f51f654d8f684p-1, 0x1.f0de784f06222p-1, 0x1.ec93abdf982cap-1,
    0x1.e83e9337a6efdp-1, 0x1.e3debb5d2edfap-1, 0x1.df73aa9f1764ep-1,
    0x1.dafce0023b8bfp-1, 0x1.d679d29e41f0bp-1, 0x1.d1e9f0e80b743p-1,
    0x1.cd4c9fe722686p-1, 0x1.c8a13a5323b5cp-1, 0x1.c3e70f9594eefp-1,
    0x1.bf1d62abf822fp-1, 0x1.ba4368e529f37p-1, 0x1.b558487427a26p-1,
    0x1.b05b16d136c99p-1, 0x1.ab4ad6e10162cp-1, 0x1.a62676d77cd56p-1,
    0x1.a0eccdca4a728p-1, 0x1.9b9c98e38c543p-1, 0x1.96347822c1ee7p-1,
    0x1.90b2ea94ecf94p-1, 0x1.8b1649e7b7694p-1, 0x1.855cc53430a72p-1,
    0x1.7f845ad46f53ep-1, 0x1.798ad10b32a73p-1, 0x1.736dad346f8a3p-1,
    0x1.6d2a29200056cp-1, 0x1.66bd261a37c39p-1, 0x1.60231cfd97ee5p-1,
    0x1.59580a707ce90p-1, 0x1.52575621ad36cp-1, 0x1.4b1bb363dfe9fp-1,
    0x1.439ef8dff9b4bp-1, 0x1.3bd9ec1a2b123p-1, 0x1.33c3fc05791e9p-1,
    0x1.2b52e3863d874p-1, 0x1.227a28f7a1ae8p-1, 0x1.192a69741366ap-1,
    0x1.0f5053b025d36p-1, 0x1.04d32278ebba0p-1, 0x1.f32482d4cd5a3p-2,
    0x1.dac2f5a74724ep-2, 0x1.c004d2f3861cfp-2, 0x1.a230c2e4cd08cp-2,
    0x1.801fce82fa6d3p-2, 0x1.57cb938443b1bp-2, 0x1.250af3c2c5b55p-2,
    0x1.b8d0be3fdf595p-3, 0x0.0p+0,
};
const double kF[257] = {
    0x1.f4a946f138416p-12, 0x1.4a605b6b9f70fp-10, 0x1.55f9f43c1b072p-9,
    0x1.08a1f03b0b20dp-8, 0x1.69ea8d90cb873p-8, 0x1.ce160f8ec684dp-8,
    0x1.1a59229952f9fp-7, 0x1.4eb96421acff0p-7, 0x1.841040d8da48ap-7,
    0x1.ba48d274f8fb9p-7, 0x1.f152a4f72dd59p-7, 0x1.149033460301fp-6,
    0x1.30d388dab5e21p-6, 0x1.4d6eaf2fbb06cp-6, 0x1.6a5daf40bbf90p-6,
    0x1.879d1b600c113p-6, 0x1.a529f4e22ec02p-6, 0x1.c301983cd0924p-6,
    0x1.e121adb828c7dp-6, 0x1.ff881d718a5ccp-6, 0x1.0f1982e968017p-5,
    0x1.1e9059f1f6ac3p-5, 0x1.2e27ce83df4a5p-5, 0x1.3ddf2ce98eed8p-5,
    0x1.4db5d0e112772p-5, 0x1.5dab23cf2adeap-5, 0x1.6dbe9b398d078p-5,
    0x1.7defb77af2733p-5, 0x1.8e3e02a68b5c1p-5, 0x1.9ea90f929557ap-5,
    0x1.af30790385f8bp-5, 0x1.bfd3e0f282a45p-5, 0x1.d092efeadf17cp-5,
    0x1.e16d547b2519cp-5, 0x1.f262c2b6c6e49p-5, 0x1.01b979e30e49dp-4,
    0x1.0a4ed2c159629p-4, 0x1.12f14d0f217a2p-4, 0x1.1ba0cbe978982p-4,
    0x1.245d344dd0d96p-4, 0x1.2d266cf9b3115p-4, 0x1.35fc5e4d93e70p-4,
    0x1.3edef23269a86p-4, 0x1.47ce1401b2219p-4, 0x1.50c9b06fa2bb4p-4,
    0x1.59d1b577466a9p-4, 0x1.62e6124854d1dp-4, 0x1.6c06b73694a52p-4,
    0x1.753395aaa117bp-4, 0x1.7e6ca013eefdcp-4, 0x1.87b1c9dbf2858p-4,
    0x1.9103075a4a0b4p-4, 0x1.9a604dc9d5b1fp-4, 0x1.a3c9933ea628dp-4,
    0x1.ad3ece9caf63dp-4, 0x1.b6bff78f2e241p-4, 0x1.c04d0680b1027p-4,
    0x1.c9e5f493b7423p-4, 0x1.d38abb9bd91fap-4, 0x1.dd3b56176e8a9p-4,
    0x1.e6f7bf29aa562p-4, 0x1.f0bff29520e33p-4, 0x1.fa93ecb6b2244p-4,
    0x1.0239d54067d38p-3, 0x1.072f94bb8bf91p-3, 0x1.0c2b33d5209c7p-3,
    0x1.112cb1da26ec6p-3, 0x1.16340e5a82d70p-3, 0x1.1b41492757d4fp-3,
    0x1.2054625183c41p-3, 0x1.256d5a2835ec4p-3, 0x1.2a8c3137a0728p-3,
    0x1.2fb0e847c2a73p-3, 0x1.34db805b4ab99p-3, 0x1.3a0bfaae8d7fep-3,
    0x1.3f4258b6931c2p-3, 0x1.447e9c20375e9p-3, 0x1.49c0c6cf5ce44p-3,
    0x1.4f08dade31fdap-3, 0x1.5456da9c8684fp-3, 0x1.59aac88f31d89p-3,
    0x1.5f04a76f88414p-3, 0x1.64647a2adf1b9p-3, 0x1.69ca43e21f275p-3,
    0x1.6f3607e96472dp-3, 0x1.74a7c9c7ab5bcp-3, 0x1.7a1f8d368a338p-3,
    0x1.7f9d5621f7187p-3, 0x1.852128a819a49p-3, 0x1.8aab09192816cp-3,
    0x1.903afbf74fa7bp-3, 0x1.95d105f6a7c3ap-3, 0x1.9b6d2bfd2fe6fp-3,
    0x1.a10f7322d7e50p-3, 0x1.a6b7e0b19268ep-3, 0x1.ac667a2571816p-3,
    0x1.b21b452ccd149p-3, 0x1.b7d647a8731b9p-3, 0x1.bd9787abe18afp-3,
    0x1.c35f0b7d89d53p-3, 0x1.c92cd9971df5fp-3, 0x1.cf00f8a5e6fd5p-3,
    0x1.d4db6f8b25156p-3, 0x1.dabc455c79010p-3, 0x1.e0a381645718dp-3,
    0x1.e6912b2283ce6p-3, 0x1.ec854a4c99c4dp-3, 0x1.f27fe6ce998d8p-3,
    0x1.f88108cb8323bp-3, 0x1.fe88b89df93c7p-3, 0x1.024b7f6c7747fp-2,
    0x1.0555f2242e9d9p-2, 0x1.0863b8f904336p-2, 0x1.0b74d88b242dap-2,
    0x1.0e895598709c4p-2, 0x1.11a134fcf2423p-2, 0x1.14bc7bb34ee67p-2,
    0x1.17db2ed5454e8p-2, 0x1.1afd539c2f050p-2, 0x1.1e22ef6188116p-2,
    0x1.214c079f7cc9ep-2, 0x1.2478a1f17de89p-2, 0x1.27a8c414db11ep-2,
    0x1.2adc73e963fddp-2, 0x1.2e13b77210766p-2, 0x1.314e94d5af62fp-2,
    0x1.348d125f9d19ep-2, 0x1.37cf368081379p-2, 0x1.3b1507cf143aep-2,
    0x1.3e5e8d08ed2dbp-2, 0x1.41abcd1357a19p-2, 0x1.44fccefc324fep-2,
    0x1.485199fad6ad4p-2, 0x1.4baa357109ca2p-2, 0x1.4f06a8ebf6d92p-2,
    0x1.5266fc2533bedp-2, 0x1.55cb3703d0100p-2, 0x1.5933619d6eebep-2,
    0x1.5c9f84376c244p-2, 0x1.600fa7480d2c8p-2, 0x1.6383d377be515p-2,
    0x1.66fc11a25cbe2p-2, 0x1.6a786ad88de21p-2, 0x1.6df8e86124caap-2,
    0x1.717d93ba9614cp-2, 0x1.7506769c7b1edp-2, 0x1.78939af9252ebp-2,
    0x1.7c250aff414b1p-2, 0x1.7fbad11b8d913p-2, 0x1.8354f7faa0ddbp-2,
    0x1.86f38a8ac5ab8p-2, 0x1.8a9693fde918bp-2, 0x1.8e3e1fcb9f119p-2,
    0x1.91ea39b33cb1bp-2, 0x1.959aedbe09f98p-2, 0x1.995048418c0ccp-2,
    0x1.9d0a55e1e93e5p-2, 0x1.a0c9239468445p-2, 0x1.a48cbea20c056p-2,
    0x1.a85534aa4d889p-2, 0x1.ac2293a5f5aa5p-2, 0x1.aff4e9ea1855ap-2,
    0x1.b3cc462b331d2p-2, 0x1.b7a8b78071324p-2, 0x1.bb8a4d6716d9ap-2,
    0x1.bf7117c616a1fp-2, 0x1.c35d26f1d2cbfp-2, 0x1.c74e8bb00d7cep-2,
    0x1.cb45573c0a84ep-2, 0x1.cf419b4ae5b75p-2, 0x1.d3436a1021086p-2,
    0x1.d74ad6426de39p-2, 0x1.db57f320b56b6p-2, 0x1.df6ad47763a0ep-2,
    0x1.e3838ea5f9b89p-2, 0x1.e7a236a4ec3cap-2, 0x1.ebc6e20bd1f59p-2,
    0x1.eff1a717e8f9ap-2, 0x1.f4229cb2f7af8p-2, 0x1.f859da7a900cfp-2,
    0x1.fc9778c7bbda8p-2, 0x1.006dc85b8cac8p-1, 0x1.02931e18b822dp-1,
    0x1.04bbcafa63f30p-1, 0x1.06e7dccf03c38p-1, 0x1.091761d995d82p-1,
    0x1.0b4a68d70d9afp-1, 0x1.0d810104142a1p-1, 0x1.0fbb3a2325915p-1,
    0x1.11f9248311f3bp-1, 0x1.143ad105ea9a0p-1, 0x1.16805128639dep-1,
    0x1.18c9b709b3c55p-1, 0x1.1b171573fd117p-1, 0x1.1d687fe54996fp-1,
    0x1.1fbe0a9929627p-1, 0x1.2217ca92ff7f7p-1, 0x1.2475d5a90db89p-1,
    0x1.26d84290504f2p-1, 0x1.293f28e93cd1ap-1, 0x1.2baaa14d7954dp-1,
    0x1.2e1ac55ea3bf0p-1, 0x1.308fafd6438f1p-1, 0x1.33097c9703a38p-1,
    0x1.358848bf550ebp-1, 0x1.380c32bda00d7p-1, 0x1.3a955a662cd10p-1,
    0x1.3d23e10af31a5p-1, 0x1.3fb7e99585b84p-1, 0x1.425198a355fe5p-1,
    0x1.44f114a49367bp-1, 0x1.479685fdf5014p-1, 0x1.4a42172dc527bp-1,
    0x1.4cf3f4f494ec3p-1, 0x1.4fac4e820b66ap-1, 0x1.526b55a656cd8p-1,
    0x1.55313f08d9e49p-1, 0x1.57fe4264c8d92p-1, 0x1.5ad29acc85c8bp-1,
    0x1.5dae86f4aff6cp-1, 0x1.6092498802667p-1, 0x1.637e298550c1ap-1,
    0x1.667272a92e325p-1, 0x1.696f75e513b2cp-1, 0x1.6c7589e635a8bp-1,
    0x1.6f850baea7af0p-1, 0x1.729e5f43f6d14p-1, 0x1.75c1f0770d858p-1,
    0x1.78f033ca0b0d8p-1, 0x1.7c29a779c685bp-1, 0x1.7f6ed4b20e2cep-1,
    0x1.82c050f56cf71p-1, 0x1.861ebfc37bcadp-1, 0x1.898ad48badf04p-1,
    0x1.8d0554fe60aaap-1, 0x1.908f1bd317151p-1, 0x1.94291c21b7a4ap-1,
    0x1.97d4657617ac4p-1, 0x1.9b9228d240685p-1, 0x1.9f63bee651fdcp-1,
    0x1.a34aafdf5af14p-1, 0x1.a748bd550c9e7p-1, 0x1.ab5fef17a250ap-1,
    0x1.af92a3f6ce8a8p-1, 0x1.b3e3a8234dd16p-1, 0x1.b85653a8ff558p-1,
    0x1.bceeb4ee1dc88p-1, 0x1.c1b1cd9eebaf0p-1, 0x1.c6a5ecea97886p-1,
    0x1.cbd33a8a72df3p-1, 0x1.d144978a119e4p-1, 0x1.d70920657bcfbp-1,
    0x1.dd36fa704de9fp-1, 0x1.e3f11e027f082p-1, 0x1.eb7545b6ca922p-1,
    0x1.f446ac979f097p-1, 0x1.0000000000000p+0,
};

}  // namespace zig

namespace {

// Right edge of the base layer; draws beyond it come from the tail.
constexpr double kZigR = 0x1.d3bb48209ad33p+1;

double unit_open(u64 w) {  // (0, 1]: safe to take the log of
  return static_cast<double>((w >> 11) + 1) * 0x1.0p-53;
}

double unit(u64 w) {  // [0, 1)
  return static_cast<double>(w >> 11) * 0x1.0p-53;
}

}  // namespace

double CounterStream::normal_slow(u64 index, u64 first_word) const {
  u64 w = first_word;
  u64 lane = 1;
  for (;;) {
    const unsigned layer = static_cast<unsigned>(w & 0xff);
    const bool negative = (w & 0x100) != 0;
    const double x = unit(w) * zig::kX[layer];
    if (x < zig::kX[layer + 1]) return negative ? -x : x;
    if (layer == 0) {
      // Beyond r: Marsaglia's tail method — exponential proposals accepted
      // against the Gaussian tail.
      double xt = 0.0;
      double yt = 0.0;
      do {
        xt = -pmath::ln(unit_open(bits(index, lane++))) / kZigR;
        yt = -pmath::ln(unit_open(bits(index, lane++)));
      } while (yt + yt < xt * xt);
      return negative ? -(kZigR + xt) : kZigR + xt;
    }
    // The wedge between the layer's rectangle and the density.
    const double y = zig::kF[layer] +
                     (zig::kF[layer + 1] - zig::kF[layer]) *
                         unit(bits(index, lane++));
    if (y < pmath::exp(-0.5 * x * x)) return negative ? -x : x;
    w = bits(index, lane++);
  }
}

}  // namespace collie
